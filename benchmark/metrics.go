package main

import (
	"sort"

	"repro/internal/stats"
)

// metricDef names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none. BENCHMARK.json repeats these
// tables and TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// Every workload reports every end-to-end metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"fps", "1/s", "higher", 0.25},
	{"frame_p25_ms", "ms", "lower", 0.25},
	{"keyframe_rtt_p50_ms", "ms", "lower", 0.25},
	{"keyframe_rtt_p90_ms", "ms", "lower", 0.25},
	{"miou", "ratio", "higher", 0.05},
	{"keyframe_ratio", "ratio", "lower", 0.05},
	{"wire_kb_per_frame", "kB", "lower", 0.05},
	{"cpu_ms_per_frame", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// Per-layer metrics are named <module>.<name> after the internal package
// whose work they measure. The first block comes from the traced pass of a
// workload, the second from the layer table.
var perLayer = []metricDef{
	{"video.next_ms", "ms", "lower", 0},
	{"netsim.uplink_ms", "ms", "lower", 0},
	{"serve.keyframe_ms", "ms", "lower", 0},
	{"teacher.infer_ms", "ms", "lower", 0},
	{"teacher.mean_batch", "count", "higher", 0},
	{"core.distill_ms", "ms", "lower", 0},
	{"core.distill_step_ms", "ms", "lower", 0},
	{"core.distill_steps", "count", "lower", 0},
	{"serve.self_ms", "ms", "lower", 0},
	{"netsim.downlink_ms", "ms", "lower", 0},
	{"core.frame_p50_ms", "ms", "lower", 0},
	{"core.frame_p99_ms", "ms", "lower", 0},
	{"core.frame_tail5_ms", "ms", "lower", 0},
	{"core.blocked_frame_pct", "%", "lower", 0},
	{"core.stride_mean", "count", "higher", 0},
	{"core.generator_max_late_ms", "ms", "lower", 0},
	{"transport.up_bytes_per_keyframe", "bytes", "lower", 0},
	{"transport.down_bytes_per_keyframe", "bytes", "lower", 0},
	{"netsim.packets_sent", "count", "lower", 0},
	{"netsim.packets_lost", "count", "lower", 0},
	{"netsim.packets_recovered", "count", "higher", 0},
	{"netsim.retransmits", "count", "lower", 0},
	{"netsim.loss_rate_pct", "%", "lower", 0},
	{"netsim.goodput_mbps", "Mbit/s", "higher", 0},
	{"serve.handshake_ms", "ms", "lower", 0},
	{"serve.checkpoint_bytes", "bytes", "lower", 0},
	{"serve.sessions_served", "count", "higher", 0},
	{"fabric.routed", "count", "higher", 0},
	{"fabric.handoffs", "count", "lower", 0},
	{"fabric.sheds", "count", "lower", 0},
	{"resume.reconnects", "count", "lower", 0},
	{"resume.replays", "count", "higher", 0},
	{"resume.full_resends", "count", "lower", 0},
	{"resume.recovery_ms", "ms", "lower", 0},
	{"resume.stale_frames", "count", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},

	{"tensor.gemm_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_atb_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_abt_gflops", "GFLOP/s", "higher", 0},
	{"tensor.conv_fwd_ms", "ms", "lower", 0},
	{"tensor.conv_bwd_ms", "ms", "lower", 0},
	{"nn.infer_ms", "ms", "lower", 0},
	{"nn.infer_allocs", "count", "lower", 0},
	{"nn.infer_batch8_ms_per_frame", "ms", "lower", 0},
	{"core.train_step_ms", "ms", "lower", 0},
	{"core.train_allocs_per_step", "count", "lower", 0},
	{"teacher.oracle_infer_ms", "ms", "lower", 0},
	{"teacher.cnn_infer_ms", "ms", "lower", 0},
	{"teacher.cnn_batch8_ms_per_frame", "ms", "lower", 0},
	{"compress.raw_encode_ms", "ms", "lower", 0},
	{"compress.raw_decode_ms", "ms", "lower", 0},
	{"compress.raw_bytes", "bytes", "lower", 0},
	{"compress.int8_encode_ms", "ms", "lower", 0},
	{"compress.int8_decode_ms", "ms", "lower", 0},
	{"compress.int8_bytes", "bytes", "lower", 0},
	{"compress.delta_int8_checkpoint_bytes", "bytes", "lower", 0},
	{"transport.keyframe_encode_ms", "ms", "lower", 0},
	{"transport.keyframe_decode_ms", "ms", "lower", 0},
	{"transport.keyframe_bytes", "bytes", "lower", 0},
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// tailMean is the mean of the largest share of v (at least one value): a
// tail statistic that averages over many samples where a single high
// percentile rests on one.
func tailMean(v []float64, share float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := int(share * float64(len(s)))
	if n < 1 {
		n = 1
	}
	return stats.Mean(s[len(s)-n:])
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), which is
// what the driver's spread check uses. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
