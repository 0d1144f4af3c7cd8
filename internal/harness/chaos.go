package harness

import (
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// Chaos scenarios script mid-stream connection faults and measure the
// resilience subsystem end to end: reconnect count, journal-replay vs
// full-checkpoint recoveries, recovery latency, frames inferred on stale
// weights, and the accuracy cost against a fault-free twin run. A student
// diff's size depends on what its key frame's training moved, so cuts are
// placed relative to the message they sever — "inside the second student
// diff a connection carries" is the same event on every machine and every
// stream, where a byte offset from the start of the connection is not.

// midDiffCut severs the download direction inside the k-th student diff a
// connection carries (1-based, journal replays included). The offset is
// past the frame header and short of the end of the smallest diff there is
// — one whose key frame skipped optimisation is a few hundred bytes of
// "unchanged" tensor headers (TestMidDiffCutLandsInsideEveryDiff) — so the
// client always holds a torn body, never a whole diff.
func midDiffCut(k int) netsim.Fault {
	return netsim.Fault{Dir: netsim.Down, Frame: k, FrameType: uint8(transport.MsgStudentDiff), AfterBytes: midDiffOffset}
}

const midDiffOffset = 256

// dropMidstreamCuts scripts two download-direction cuts: the first severs
// the initial connection in the middle of the second student diff (the
// client has applied diff 1, diff 2 is journaled but lost in flight — a
// genuine journal replay), the second severs the resumed connection
// mid-diff again a couple of updates later (the replayed diff 2, diff 3,
// then diff 4 torn).
func dropMidstreamCuts() []netsim.Fault {
	return []netsim.Fault{midDiffCut(2), midDiffCut(3)}
}

// simChaosDelta recomputes the drop-midstream accuracy cost on the
// deterministic simulation clock. Both scripted cuts sever a student diff
// mid-flight; the resilience layer journals and replays it, so the update
// still reaches the client — late by one reconnect handshake plus the
// retransfer of the severed diff. The twin models exactly that: two
// identical simulated runs (the live run's stream, its teacher and
// evaluator as two oracles of one seed, the experiments suite's pretrained
// student), with the faulty one adding
// the recovery cost to the updates dropMidstreamCuts severs (diffs 2 and 4,
// 0-based key frames 1 and 3). Everything runs on the simulator's virtual time, so
// given diffMsg the returned delta is machine-independent — unlike the live
// run, where host speed shifts which frame each recovered diff lands on.
// diffMsg is the size of the replayed message: the mean student diff the
// live fault-free twin measured.
func simChaosDelta(spec Spec, diffMsg int) (deltaPP, cleanMIoU float64, err error) {
	// The recovery window is priced from the client's actual constants: the
	// first-redial backoff (Drive leaves every client on the default), the
	// resume handshake (Hello-ack sized), and the journal replay of the
	// severed diff, all at the default link. The live run is unthrottled, so
	// its recovery_mean_ms is about the backoff alone.
	helloAck := transport.FrameOverhead + len(transport.EncodeHello(transport.Hello{}))
	recovery := core.DefaultResumeBackoff +
		netsim.DefaultLink().TransferTime(helloAck) +
		netsim.DefaultLink().TransferTime(diffMsg)
	run := func(delay func(int) time.Duration) (float64, error) {
		vcfg, err := workloadConfig(spec, 0) // the live run's client-0 stream
		if err != nil {
			return 0, err
		}
		src, err := video.NewGenerator(vcfg)
		if err != nil {
			return 0, err
		}
		ccfg := core.DefaultConfig()
		student, err := experiments.FreshStudentFor(ccfg)
		if err != nil {
			return 0, err
		}
		res, err := core.Simulate(core.SimConfig{
			Cfg:         ccfg,
			Mode:        core.ModeShadowTutor,
			Frames:      spec.Frames,
			Link:        netsim.DefaultLink(),
			Concurrency: core.FullConcurrency,
			EvalEvery:   spec.EvalEvery,
			UpdateDelay: delay,
		}, src, teacher.NewOracle(spec.Seed+997), teacher.NewOracle(spec.Seed+997), student)
		if err != nil {
			return 0, err
		}
		return res.MeanIoU, nil
	}
	clean, err := run(nil)
	if err != nil {
		return 0, 0, err
	}
	faulty, err := run(func(kf int) time.Duration {
		if kf == 1 || kf == 3 {
			return recovery
		}
		return 0
	})
	if err != nil {
		return 0, 0, err
	}
	return 100 * (faulty - clean), clean, nil
}

// runChaosWithBaseline runs the spec as given, then its fault-free twin,
// and reports the faulty run annotated with the accuracy delta — plus the
// deterministic simulation twin's delta, which is the number CI bounds
// tightly (the live delta moves with host speed).
func runChaosWithBaseline(spec Spec) ([]Metrics, error) {
	faulty, err := Drive("", "", spec)
	if err != nil {
		return nil, err
	}
	clean := spec
	clean.ChaosCuts = nil
	cleanM, err := Drive("", "", clean)
	if err != nil {
		return nil, err
	}
	// Nearly everything the clean twin moved downstream is student diffs
	// (under an envelope codec the handshake checkpoint is tensor headers):
	// un-scale its HD-equivalent traffic back to wire bytes per key frame.
	downBytes := cleanM.BytesDownHDMB * 1e6 * float64(localKeyFrameBytes()) / netsim.HDFrameBytes
	diffMsg := int(downBytes / (cleanM.KeyFrameRate * float64(spec.Clients*spec.Frames)))
	faulty.MIoUDeltaPct = 100 * (faulty.MeanIoU - cleanM.MeanIoU)
	if faulty.Extra == nil {
		faulty.Extra = map[string]float64{}
	}
	faulty.Extra["clean_miou"] = cleanM.MeanIoU
	simDelta, simClean, err := simChaosDelta(spec, diffMsg)
	if err != nil {
		return nil, err
	}
	faulty.Extra["sim_miou_delta_pp"] = simDelta
	faulty.Extra["sim_clean_miou"] = simClean
	return []Metrics{faulty}, nil
}

// The chaos catalogue. chaos/drop-midstream is the bench-gate scenario:
// its acceptance contract (2 reconnects, ≤1 full resend, mIoU within a few
// percentage points of the clean twin) is asserted by TestChaosDropMidstream
// and gated in CI via ci/bench_baseline.json. Its client is handed a frame
// every 4 ms at most: an outage is ≈ 29 ms of wall clock whatever the
// kernels cost, the run's mIoU is a step function of how many frames each
// outage spans (which frame the replayed diff and the next key frame land
// on), and the live bound was written when a frame took ≈ 3.8 ms.
func init() {
	Register(Scenario{
		Name: "chaos/drop-midstream",
		Desc: "2 mid-diff connection cuts on the drone stream; resume via journal replay",
		Spec: Spec{
			Workload:      "drone",
			Clients:       1,
			Frames:        220,
			FrameInterval: 4 * time.Millisecond,
			ChaosCuts:     dropMidstreamCuts(),
			EnvelopeCodec: "delta+int8",
		},
		Run: runChaosWithBaseline,
	})
	Register(Scenario{
		Name: "soak/chaos-churn",
		Desc: "nightly: 4 clients × 400 frames with repeated mid-stream drops, run under -race",
		Spec: Spec{
			Workload:      "mixed",
			Clients:       4,
			Frames:        400,
			ChaosCuts:     dropMidstreamCuts(),
			EnvelopeCodec: "delta+int8",
		},
		Run: runChaosWithBaseline,
	})
}
