// Package telemetry is the process-global, dependency-free metrics and
// tracing substrate: atomic counters, gauges, and fixed-bucket histograms
// with a zero-allocation record path, plus a bounded per-session event
// trace ring. Handles are nil-safe — a nil *Registry hands out nil metric
// handles whose record methods are no-ops — so instrumented code pays a
// single predictable nil check when telemetry is disabled.
//
// # Operator quickstart
//
// shadowtutor-server and stbench expose a registry over HTTP when started
// with -admin (the default "" disables it):
//
//	shadowtutor-server -listen :7600 -admin :9090
//	stbench -scenario 'fleet/*' -admin 127.0.0.1:9090
//
// Then, while the server or scenario is running:
//
//	curl -s http://127.0.0.1:9090/metrics   # Prometheus text exposition
//	curl -s http://127.0.0.1:9090/statusz   # JSON snapshot of every family
//	curl -s http://127.0.0.1:9090/tracez    # bounded session event trace
//	go tool pprof http://127.0.0.1:9090/debug/pprof/profile?seconds=5
//
// A /metrics scrape mid-run looks like:
//
//	# HELP shadowtutor_sessions_active Live sessions attached to this shard.
//	# TYPE shadowtutor_sessions_active gauge
//	shadowtutor_sessions_active{shard="0"} 5
//	shadowtutor_sessions_active{shard="1"} 4
//	# TYPE shadowtutor_distill_step_seconds histogram
//	shadowtutor_distill_step_seconds_bucket{shard="0",le="0.005"} 117
//	...
//
// Instrumentation contract: every record-path operation (Counter.Inc,
// Gauge.Set/Add, Histogram.Observe, TraceRing.Record) performs zero heap
// allocations and is safe on a nil handle, so code instruments
// unconditionally and a nil *Registry turns the whole subsystem off.
package telemetry
