// Package repro is a from-scratch Go reproduction of "ShadowTutor:
// Distributed Partial Distillation for Mobile Video DNN Inference"
// (Chung, Kim, Moon — ICPP 2020), extended with a multi-session server
// that shares one teacher across many concurrent clients.
//
// The root package holds the benchmark harness (bench_test.go), one
// benchmark per table and figure of the paper's evaluation section plus a
// 1-vs-16-client throughput comparison. The implementation lives under
// internal/ (ARCHITECTURE.md maps the paper's algorithms and sections onto
// the packages), runnable entry points under cmd/.
//
// # Quickstart
//
// The fastest tour is one scenario: a loopback server and one client run
// real online distillation on the mixed stream and report FPS, key frames
// and mIoU:
//
//	go run ./cmd/stbench -scenario multiclient/c1
//
// The bandwidth-sweep/* scenarios run the drone stream the same way over
// the §6.4 links.
//
// To run the real protocol over TCP, start the multi-session server and
// point any number of clients at it:
//
//	go run ./cmd/shadowtutor-server -listen 127.0.0.1:7607
//	go run ./cmd/shadowtutor-client -connect 127.0.0.1:7607 -stream moving/street
//
// Sessions survive connection drops: on a mid-stream failure the client
// keeps inferring locally on its stale student while its one link
// goroutine redials with backoff and resumes the server-side session
// (protocol-v3 Resume handshake — the server replays only the journaled
// student diffs the client missed). A Hello a loaded server sheds is
// redialled in the same backoff loop. Kill the client's network mid-run
// and watch the "resilience:" summary count the recoveries; the server
// keeps dropped sessions resumable for 2 minutes with their 8 most recent
// diffs (serve.Options' defaults).
//
// The server is a sharded fabric: -shards N (default 1) starts N shard
// workers (each with its own teacher and session registry) behind a router
// that places sessions by rendezvous hash, sheds load at each shard's
// MaxSessions with retryable rejects, and hands parked sessions between
// shards on resume (internal/fabric; see ARCHITECTURE.md "Sharded serving
// fabric"). -partial=false runs full distillation, and -bandwidth throttles
// each link on either side:
//
//	go run ./cmd/shadowtutor-server -shards 4 -partial=false -bandwidth 80
//
// Every full model that crosses the wire — handshake checkpoints and
// resume-full fallbacks; a cross-shard handoff moves the session itself
// and serialises nothing — goes relative to the shared pretrained base:
// the client loads the same embedded base and sends its hash in the Hello
// (mismatched bases get absolute checkpoints). -envelope-codec names the
// compress codec the server sends them under ("delta+int8" is the
// deployment choice; "delta+raw", like the empty default, is bit-exact):
//
//	go run ./cmd/shadowtutor-server -shards 4 -envelope-codec delta+int8
//
// See ARCHITECTURE.md "Delta checkpoints" for the wire formats.
//
// A server encodes every student diff under one codec fixed when it is
// built — "static:<codec>" in serve.Options.LinkPolicy (harness
// Spec.Codec), raw when empty; see ARCHITECTURE.md "Network realism & a
// fixed diff codec" — and every diff names its codec in its header, so the
// client needs no setting for it. Every diff is relative to what the
// client holds, which the server knows by decoding what it sent. Under raw
// each weight travels as its bit-pattern distance from the client's value
// (about 0.65–0.7 of the float32 size, reconstructed exactly); under a
// lossy codec its arithmetic delta rides the codec, so one diff's error
// rides in the next; the BatchNorm statistics are exact under every codec
// (see ARCHITECTURE.md "What a student diff carries on the wire"). The
// packet tier — MTU framing with seeded loss, XOR-parity FEC and
// reordering — runs in the loss/* scenarios (harness Spec.LossModel,
// FECGroup, Reorder), not from the binaries.
//
// To regenerate the paper's tables, or the sharded multi-client scenarios:
//
//	go run ./cmd/stbench -frames 600
//	go run ./cmd/stbench -scenario 'fleet/*'
//
// # Observability
//
// The server and stbench can serve a live admin HTTP endpoint (-admin,
// default off): /metrics is the Prometheus text exposition of the
// process-wide telemetry registry (per-shard session occupancy, sheds,
// handoffs, distill-step and frame-latency histograms, packet-link
// counters), /statusz the same snapshot as JSON, /tracez the recent
// per-session lifecycle event ring, and /debug/pprof the standard profiler:
//
//	go run ./cmd/shadowtutor-server -shards 4 -admin 127.0.0.1:9090
//	curl http://127.0.0.1:9090/metrics
//	curl http://127.0.0.1:9090/tracez
//
// stbench instruments scenario runs the same way:
//
//	go run ./cmd/stbench -scenario 'fleet/*' -admin 127.0.0.1:9090
//
// The registry's record path is allocation-free and nil-safe (telemetry
// off costs a nil check); see internal/telemetry and ARCHITECTURE.md
// "Observability".
//
// # Compute backends
//
// All tensor math runs on one compute path, vec (tensor.Backend): register-
// blocked kernels with AVX2+FMA assembly and a portable fallback, whose
// convolution forward — student or teacher — is one micro-kernel GEMM over
// weight panels packed per call into pooled scratch. Kernels run on the
// calling goroutine: a session is the unit of parallelism, and a
// gradient-free pass gives each activation back to the pool after its last
// consumer (autodiff.Tape.Free). tensor.Reference, the scalar oracle, is
// not selectable: internal/tensor's differential parity suite, the fuzz
// targets and the nn gradient checks pin it through a workspace or a
// student and hold vec to it. SHADOWTUTOR_NOAVX=1 forces vec's portable
// kernels, the ones non-AVX platforms run, which is how CI tests them; see
// ARCHITECTURE.md "Compute backends".
//
// # Scenario harness
//
// internal/harness holds the declarative scenario matrix: named
// combinations of link (one netsim.Stack value: a fixed bandwidth or a
// time-varying trace, an optional packet layer with loss, FEC and
// reordering, an optional fault script — every combination legal, built in
// one order by Stack.Wrap), client count, diff-compression codec and video
// workload, each run end to end over a loopback multi-session server and
// measured into a versioned JSON schema. docs/SCENARIOS.md lists them; run
// them through stbench:
//
//	go run ./cmd/stbench -scenario bandwidth-sweep/8mbps-c1-raw
//	go run ./cmd/stbench -scenario 'chaos/*'
//	go run ./cmd/stbench -scenario 'fleet/*' -json BENCH_pr7.json
//
// The chaos/* family injects scripted mid-stream connection faults
// (netsim.FaultyConn) and measures the resilience subsystem: reconnects,
// journal-replay vs full-checkpoint recoveries, recovery latency, frames
// inferred on stale weights, and the mIoU cost against a fault-free twin.
// The fleet/* family runs the sharded fabric: uniform and hash-skewed
// populations, admission shedding at the watermark, a mid-run shard drain
// migrating parked sessions, and chaos reconnects that must recover on a
// different shard via handoff with zero full resends. The loss/* family
// runs the packet tier live — three canonical loss regimes, reordering,
// FEC. docs/SCENARIOS.md catalogs every registered scenario with its spec
// dimensions and CI gate; TestScenarioCatalogInSync keeps it in sync and
// regenerates it under UPDATE_GOLDEN=1.
//
// cmd/benchdiff compares two such JSON files under per-metric tolerances
// and exits nonzero on regression — the CI perf gate:
//
//	go run ./cmd/benchdiff ci/bench_baseline.json BENCH_pr7.json
package repro
