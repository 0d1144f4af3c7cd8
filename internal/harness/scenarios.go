package harness

import (
	"time"

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
//	multiclient/*      — one loopback session on the mixed stream: the
//	                     single-session baseline the fleet/* rows scale from
//	compression/*      — the §8 diff-codec study, folded to metrics
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
		Desc: "single-session baseline the fleet/* rows scale from",
		Spec: Spec{Workload: "mixed", Clients: 1, Frames: 200},
	})
	Register(Scenario{
		Name: "compression/diff-codecs",
		Desc: "§8 diff codecs offline: bytes, ratio, reconstruction error",
		Spec: Spec{},
		Run:  runCompression,
	})

	Register(Scenario{
		Name: "soak/multiclient-long",
		Desc: "nightly: 8 clients × 900 frames, mixed streams, run under -race",
		Spec: Spec{Workload: "mixed", Clients: 8, Frames: 900, EvalEvery: 4},
	})
}
