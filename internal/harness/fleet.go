package harness

import (
	"time"

	"repro/internal/netsim"
)

// Fleet scenarios exercise the sharded serving fabric (internal/fabric):
// rendezvous placement over N shard workers, admission-control shedding at
// the per-shard watermark, shard drain with parked-session migration, and
// cross-shard session handoff on resume. The single-shard twin of the
// uniform population doubles as the scaling baseline BenchmarkFabricThroughput
// compares against.
//
// The chaos members reuse the chaos fault scripting: cuts land inside a
// student diff (midDiffCut in chaos.go), so "the cut tears the fifth
// student diff" is the same event on every machine. The cut diff is chosen
// deep enough into the stream that the scripted drain has already happened
// by the time a session parks — its resume then provably hashes to a
// surviving shard and must ride the handoff path, with the journal
// moving with the session so recovery still replays (zero full resends,
// the single-shard bound).

func init() {
	// Every fleet scenario runs the delta-checkpoint wire path: fleets share
	// one pretrained base across shards and clients by construction, which
	// is exactly the deployment the base-relative encoding targets.
	const codec = "delta+int8"

	Register(Scenario{
		Name: "fleet/uniform",
		Desc: "64 sessions rendezvous-spread over 4 shard workers",
		Spec: Spec{Workload: "mixed", Clients: 64, Frames: 24, EvalEvery: 8, Shards: 4,
			EnvelopeCodec: codec},
	})
	Register(Scenario{
		Name: "fleet/uniform-1shard",
		Desc: "the 64-session population on one shard: the scaling baseline",
		Spec: Spec{Workload: "mixed", Clients: 64, Frames: 24, EvalEvery: 8, Shards: 1,
			EnvelopeCodec: codec},
	})
	Register(Scenario{
		Name: "fleet/skewed-hash",
		Desc: "12 sessions hash-skewed onto one shard with watermark 4: admission shedding + client backoff",
		Spec: Spec{Workload: "mixed", Clients: 12, Frames: 60, Shards: 4,
			HashSkew: true, ShardCapacity: 4, EnvelopeCodec: codec},
	})
	Register(Scenario{
		Name: "fleet/shard-drain-under-load",
		Desc: "12 sessions on 4 shards; shard 1 drains mid-run while scripted cuts park sessions",
		Spec: Spec{Workload: "mixed", Clients: 12, Frames: 72, Shards: 4,
			ChaosCuts:  []netsim.Fault{midDiffCut(3)},
			DrainShard: 1, DrainAfter: 1200 * time.Millisecond,
			EnvelopeCodec: codec},
	})
	Register(Scenario{
		Name: "fleet/chaos-reconnect-to-other-shard",
		Desc: "8 sessions homed on shard 0; it drains, then every session cuts and must resume cross-shard via handoff",
		Spec: Spec{Workload: "mixed", Clients: 8, Frames: 80, Shards: 4,
			HashSkew:   true,
			ChaosCuts:  []netsim.Fault{midDiffCut(5)},
			DrainShard: 0, DrainAfter: 1500 * time.Millisecond,
			EnvelopeCodec: codec},
	})
}
