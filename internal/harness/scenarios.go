package harness

import (
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// WifiFade is the time-varying profile of the §6.4 sweep experienced live
// by one connection: healthy Wi-Fi degrading to the paper's 8 Mbps floor,
// then partially recovering. Step times are sized to scenario runs of a few
// tens of seconds so every rate is actually exercised.
var WifiFade = netsim.MustTrace("wifi-fade",
	netsim.TraceStep{At: 0, Bandwidth: 80},
	netsim.TraceStep{At: 3 * time.Second, Bandwidth: 24},
	netsim.TraceStep{At: 6 * time.Second, Bandwidth: 8},
	netsim.TraceStep{At: 9 * time.Second, Bandwidth: 48},
)

// The registered catalogue. Families:
//
//	bandwidth-sweep/*  — §6.4 link matrix: fixed profiles and the wifi-fade
//	                     trace, crossed with client counts and diff codecs
//	multiclient/*      — §1/§7 scaling: one shared batched teacher, N streams
//	workload/*         — single-stream showcases: CCTV, body-cam, a slow
//	                     link, and the quickstart stream
//	ablation/*         — the DESIGN.md ablation suite, folded to metrics
//	compression/*      — the §8 diff-codec study, folded to metrics
//	alloc/*            — PR 2 steady-state allocation guard
//	chaos/*            — scripted mid-stream connection faults measuring
//	                     the resume subsystem (see chaos.go)
//	loss/*             — packet-level loss/reorder/FEC regimes and the
//	                     adaptive-vs-static link policy contract (see loss.go)
//	soak/*             — long multi-client runs for the nightly -race job
func init() {
	sweep := func(variant string, spec Spec) {
		spec.Workload = "drone"
		Register(Scenario{
			Name: "bandwidth-sweep/" + variant,
			Desc: "§6.4 link matrix on the drone stream: " + variant,
			Spec: spec,
		})
	}
	sweep("90mbps-c1-raw", Spec{Bandwidth: 90, Clients: 1})
	sweep("45mbps-c2-raw", Spec{Bandwidth: 45, Clients: 2})
	sweep("8mbps-c1-raw", Spec{Bandwidth: 8, Clients: 1})
	sweep("80mbps-c1-int8", Spec{Bandwidth: 80, Clients: 1, Codec: "int8"})
	sweep("45mbps-c2-int8", Spec{Bandwidth: 45, Clients: 2, Codec: "int8"})
	sweep("wifi-fade-c1-raw", Spec{Trace: WifiFade, Clients: 1})
	sweep("wifi-fade-c2-prune25", Spec{Trace: WifiFade, Clients: 2, Codec: "prune25"})

	Register(Scenario{
		Name: "multiclient/c1",
		Desc: "single session baseline for the scaling story",
		Spec: Spec{Workload: "mixed", Clients: 1, Frames: 200},
	})
	Register(Scenario{
		Name: "multiclient/c4",
		Desc: "4 heterogeneous streams sharing one batched teacher",
		Spec: Spec{Workload: "mixed", Clients: 4, Frames: 200},
	})
	Register(Scenario{
		Name: "multiclient/c8",
		Desc: "8 heterogeneous streams sharing one batched teacher",
		Spec: Spec{Workload: "mixed", Clients: 8, Frames: 160},
	})

	// Single-stream showcases; workload/quickstart is the starting tour.
	Register(Scenario{
		Name: "workload/streetcam",
		Desc: "southbeach CCTV, the most volatile stream",
		Spec: Spec{Workload: "southbeach", Clients: 1},
	})
	Register(Scenario{
		Name: "workload/egocentric",
		Desc: "body-cam people stream",
		Spec: Spec{Workload: "egocentric/people", Clients: 1},
	})
	Register(Scenario{
		Name: "workload/softball-lowbw",
		Desc: "calmest stream on a 12 Mbps link",
		Spec: Spec{Workload: "softball", Bandwidth: 12, Clients: 1},
	})
	Register(Scenario{
		Name: "workload/quickstart",
		Desc: "fixed/people starter stream",
		Spec: Spec{Workload: "fixed/people", Clients: 1, Frames: 180},
	})

	Register(Scenario{
		Name: "ablation/stride",
		Desc: "striding policy ablation (adaptive vs fixed vs backoff)",
		Spec: Spec{},
		Run:  runAblationStride,
	})
	Register(Scenario{
		Name: "ablation/async",
		Desc: "async vs blocking update across the Figure 4 bandwidths",
		Spec: Spec{},
		Run:  runAblationAsync,
	})
	Register(Scenario{
		Name: "ablation/freeze",
		Desc: "partial-distillation freeze-point sweep",
		Spec: Spec{},
		Run:  runAblationFreeze,
	})
	Register(Scenario{
		Name: "ablation/loss",
		Desc: "×5 object loss weighting vs uniform cross-entropy",
		Spec: Spec{},
		Run:  runAblationLoss,
	})
	Register(Scenario{
		Name: "compression/diff-codecs",
		Desc: "§8 diff codecs offline: bytes, ratio, reconstruction error",
		Spec: Spec{},
		Run:  runCompression,
	})

	Register(Scenario{
		Name: "alloc/distill-step",
		Desc: "steady-state allocations per distillation step (PR 2 guard)",
		Spec: Spec{Workload: "moving/street"},
		Run: func(spec Spec) ([]Metrics, error) {
			allocs, err := DistillAllocsPerStep(core.DefaultConfig(), spec)
			if err != nil {
				return nil, err
			}
			return []Metrics{{
				Workload:             spec.Workload,
				DistillAllocsPerStep: allocs,
			}}, nil
		},
	})

	Register(Scenario{
		Name: "soak/multiclient-long",
		Desc: "nightly: 8 clients × 900 frames, mixed streams, run under -race",
		Spec: Spec{Workload: "mixed", Clients: 8, Frames: 900, EvalEvery: 4},
	})
}
