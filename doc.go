// Package repro is a from-scratch Go reproduction of "ShadowTutor:
// Distributed Partial Distillation for Mobile Video DNN Inference"
// (Chung, Kim, Moon — ICPP 2020), extended with a multi-session server
// that shares one batched teacher across many concurrent clients.
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
//	go run ./cmd/shadowtutor-server -listen 127.0.0.1:7607 -max-sessions 64
//	go run ./cmd/shadowtutor-client -connect 127.0.0.1:7607 -stream moving/street
//
// Sessions survive connection drops: the client runs with -reconnect by
// default, so on a mid-stream failure it keeps inferring locally on its
// stale student while its one link goroutine redials with backoff and
// resumes the server-side session (protocol-v3 Resume handshake — the
// server replays only the journaled student diffs the client missed). A
// Hello a loaded server sheds is redialled in the same backoff loop. Kill the client's network mid-run and
// watch the "resilience:" summary count the recoveries; the server keeps
// dropped sessions resumable for -resume-ttl (default 2m) with
// -journal-depth recent diffs. -reconnect=false restores fail-fast.
//
// At scale, run the serving tier as a sharded fabric instead of one
// session manager: -shards N starts N shard workers (each with its own
// batched teacher and session registry) behind a router that places sessions
// by rendezvous hash, sheds load at per-shard capacity watermarks with
// retryable rejects, and hands parked sessions between shards on resume
// (internal/fabric; see ARCHITECTURE.md "Sharded serving fabric"):
//
//	go run ./cmd/shadowtutor-server -shards 4 -max-sessions 32
//
// Every full model that crosses the wire — handshake checkpoints and
// resume-full fallbacks; a cross-shard handoff moves the session itself
// and serialises nothing — can be sent relative to the shared pretrained
// base instead of absolute: -envelope-codec names a compress codec
// ("delta+int8" is the deployment choice; "delta+raw", like the empty
// default, is bit-exact), and
// clients opt in with -delta-checkpoints, which loads the same embedded
// base locally and sends its hash in the Hello (mismatched
// bases get absolute checkpoints, as do clients that never opt in):
//
//	go run ./cmd/shadowtutor-server -shards 4 -envelope-codec delta+int8
//	go run ./cmd/shadowtutor-client -connect 127.0.0.1:7607 -delta-checkpoints
//
// See ARCHITECTURE.md "Delta checkpoints" for the wire formats.
//
// The link itself can be made realistically unreliable: -loss-model
// activates a packet layer (MTU framing over the TCP stream) with a seeded
// loss model — "uniform:0.02", "ge:0.02,0.25,0.002,0.5" for bursty
// Gilbert-Elliott loss — plus -fec N for XOR-parity groups that recover
// any single loss per group without a resend, and -reorder for packet
// reordering. Both ends must speak the framing, so the flags appear on
// server and client alike. With -adaptive, the server watches each
// session's measured loss and goodput and switches the diff codec, stride
// scale and FEC group at runtime (three-state hysteresis; see
// ARCHITECTURE.md "Network realism & adaptive link policy"). The link
// policy is the only way to pick a diff codec — a fixed codec is the policy
// "static:<codec>" (serve.Options.LinkPolicy, harness Spec.Codec) — and
// every student diff names its codec and stride scale in its header, so
// the client needs no flag for it. Every diff is relative to what the
// client holds, which the server knows by decoding what it sent. Under raw
// each weight travels as its bit-pattern distance from the client's value
// (about 0.65–0.7 of the float32 size, reconstructed exactly); under a
// lossy codec its arithmetic delta rides the codec, so one diff's error
// rides in the next; the BatchNorm statistics are exact under every codec
// (see ARCHITECTURE.md "What a student diff carries on the wire"):
//
//	go run ./cmd/shadowtutor-server -loss-model uniform:0.02 -fec 8 -adaptive
//	go run ./cmd/shadowtutor-client -connect 127.0.0.1:7607 -loss-model uniform:0.02 -fec 8
//
// To regenerate the paper's tables, or the sharded multi-client scenarios:
//
//	go run ./cmd/stbench -frames 600
//	go run ./cmd/stbench -scenario 'fleet/*'
//
// # Observability
//
// Both binaries can serve a live admin HTTP endpoint (-admin, default
// off): /metrics is the Prometheus text exposition of the process-wide
// telemetry registry (per-shard session occupancy, sheds, handoffs,
// distill-step and frame-latency histograms, packet-link counters),
// /statusz the same snapshot as JSON, /tracez the recent per-session
// lifecycle event ring, and /debug/pprof the standard profiler:
//
//	go run ./cmd/shadowtutor-server -shards 4 -admin 127.0.0.1:9090
//	curl http://127.0.0.1:9090/metrics
//	curl http://127.0.0.1:9090/tracez
//
// stbench instruments scenario runs the same way, plus a one-line live
// status (-progress) and sampled time series folded into the metrics
// JSON (-sample):
//
//	go run ./cmd/stbench -scenario 'fleet/*' -admin 127.0.0.1:9090 -progress
//	go run ./cmd/stbench -scenario 'loss/*' -sample 250ms -json out.json
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
// measured into a versioned JSON schema. List and run them through stbench:
//
//	go run ./cmd/stbench -list
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
// FEC — and loss/adaptive-vs-static holds the adaptive link policy to
// beating the best static codec/FEC configuration on at least 1 of the 3
// regimes (extra.adaptive_wins; ROADMAP item 7). docs/SCENARIOS.md catalogs every
// registered scenario with its spec dimensions and CI gate; regenerate it
// with `go run ./cmd/stbench -catalog` (a registry-diff test keeps it in
// sync).
//
// cmd/benchdiff compares two such JSON files under per-metric tolerances
// and exits nonzero on regression — the CI perf gate:
//
//	go run ./cmd/benchdiff ci/bench_baseline.json BENCH_pr7.json
package repro
