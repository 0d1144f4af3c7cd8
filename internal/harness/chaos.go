package harness

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

// Chaos scenarios script mid-stream connection faults at exact wire
// offsets and measure the resilience subsystem end to end: reconnect
// count, journal-replay vs full-checkpoint recoveries, recovery latency,
// frames inferred on stale weights, and the accuracy cost against a
// fault-free twin run. The offsets are computed from the protocol's
// deterministic message sizes, so a "cut in the middle of the second
// student diff" is the same byte on every machine.

// wireSizes returns the deterministic server→client message sizes (with
// framing) of the default-architecture student under partial
// distillation: the Hello ack, the full checkpoint, and one raw student
// diff. envCodec is the scenario's Spec.EnvelopeCodec: when set, the
// handshake checkpoint is the delta-encoded body a capable client receives
// — at handshake the session clone still equals the base, so every
// parameter rides the bit-copy mode and the body size depends only on the
// architecture's names and shapes, making the offset as deterministic as
// the raw one.
func wireSizes(envCodec string) (helloAck, fullMsg, diffMsg int64) {
	st := nn.NewStudentForWire()
	st.SetPartial(true)
	helloAck = transport.FrameOverhead + int64(len(transport.EncodeHello(transport.Hello{})))
	fullMsg = transport.FrameOverhead + int64(nn.EncodedSize(st.Params.All()))
	if c, ok := compress.ByName(envCodec); ok {
		ck := &core.CheckpointCodec{Base: st.Params, Codec: compress.Inner(c)}
		body, err := ck.EncodeBody(st.Params.All())
		if err != nil {
			panic(fmt.Sprintf("harness: sizing delta checkpoint: %v", err))
		}
		fullMsg = transport.FrameOverhead + int64(len(body))
	}
	// A raw diff body is FrameIndex (4) + Metric (8) + the trainable
	// subset + Seq (8); see transport.EncodeStudentDiff.
	diffMsg = transport.FrameOverhead + 4 + 8 + int64(nn.EncodedSize(nn.TrainableSubset(st.Params))) + 8
	return
}

// keyFrameUploadBytes is the full client→server wire cost of one key frame
// (framing + body + the oracle label side-channel).
func keyFrameUploadBytes() int64 {
	img := tensor.New(3, video.DefaultH, video.DefaultW)
	return transport.FrameOverhead +
		int64(transport.KeyFrameWireBytes(transport.KeyFrame{Image: img})) +
		int64(4*video.DefaultH*video.DefaultW)
}

// dropMidstreamCuts scripts two download-direction cuts: the first severs
// the initial connection in the middle of the second student diff (the
// client has applied diff 1, diff 2 is journaled but lost in flight — a
// genuine journal replay), the second severs the resumed connection
// mid-diff again a couple of updates later.
func dropMidstreamCuts(envCodec string) []int64 {
	helloAck, fullMsg, diffMsg := wireSizes(envCodec)
	const resumeAckMsg = transport.FrameOverhead + 23 // status+epoch+head+count+reason-len
	return []int64{
		helloAck + fullMsg + diffMsg + diffMsg/2,
		resumeAckMsg + 2*diffMsg + diffMsg/2,
	}
}

// simChaosDelta recomputes the drop-midstream accuracy cost on the
// deterministic simulation clock. Both scripted cuts sever a student diff
// mid-flight; the resilience layer journals and replays it, so the update
// still reaches the client — late by one reconnect handshake plus the
// retransfer of the severed diff. The twin models exactly that: two
// identical simulated runs (same stream, oracle, and pretrained student as
// the experiments suite uses for this workload), with the faulty one adding
// the recovery cost to the updates the byte offsets cut (the 2nd and 5th,
// 0-based key frames 1 and 4). Everything runs on simclock virtual time, so
// the returned delta is bitwise machine-independent — unlike the live run,
// where host speed shifts which frame each recovered diff lands on.
func simChaosDelta(spec Spec) (deltaPP, cleanMIoU float64, err error) {
	// The recovery window is priced from the client's actual constants: the
	// first-redial backoff, the resume handshake (Hello-ack sized), and the
	// journal replay of the severed diff. At the default link this is
	// ~80ms — matching the live harness's measured recovery_mean_ms.
	helloAck, _, diffMsg := wireSizes(spec.EnvelopeCodec)
	recovery := core.DefaultResumeBackoff +
		netsim.DefaultLink().TransferTime(int(helloAck)) +
		netsim.DefaultLink().TransferTime(int(diffMsg))
	run := func(delay func(int) time.Duration) (float64, error) {
		vcfg, err := video.NamedVideo(spec.Workload, spec.Seed*7+13)
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
		}, src, teacher.NewOracle(spec.Seed+997), student)
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
		if kf == 1 || kf == 4 {
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
	clean.ChaosStall = 0
	cleanM, err := Drive("", "", clean)
	if err != nil {
		return nil, err
	}
	faulty.MIoUDeltaPct = 100 * (faulty.MeanIoU - cleanM.MeanIoU)
	if faulty.Extra == nil {
		faulty.Extra = map[string]float64{}
	}
	faulty.Extra["clean_miou"] = cleanM.MeanIoU
	simDelta, simClean, err := simChaosDelta(spec)
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
// and gated in CI via ci/bench_baseline.json.
func init() {
	Register(Scenario{
		Name: "chaos/drop-midstream",
		Desc: "2 mid-diff connection cuts on the drone stream; resume via journal replay",
		Spec: Spec{
			Workload:      "drone",
			Clients:       1,
			Frames:        220,
			ChaosCuts:     dropMidstreamCuts("delta+int8"),
			ChaosDownCut:  true,
			EnvelopeCodec: "delta+int8",
		},
		Run: runChaosWithBaseline,
	})
	Register(Scenario{
		Name: "chaos/stall-midstream",
		Desc: "two 150ms link stalls mid-upload; latency spikes without connection loss",
		Spec: Spec{
			Workload:   "drone",
			Clients:    1,
			Frames:     200,
			ChaosCuts:  []int64{2 * keyFrameUploadBytes(), 5 * keyFrameUploadBytes()},
			ChaosStall: 150 * time.Millisecond,
		},
	})
	Register(Scenario{
		Name: "soak/chaos-churn",
		Desc: "nightly: 4 clients × 400 frames with repeated mid-stream drops, run under -race",
		Spec: Spec{
			Workload:      "mixed",
			Clients:       4,
			Frames:        400,
			ChaosCuts:     dropMidstreamCuts("delta+int8"),
			ChaosDownCut:  true,
			EnvelopeCodec: "delta+int8",
		},
		Run: runChaosWithBaseline,
	})
}
