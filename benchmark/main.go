// Command benchmark is the repository's benchmark: four fixed workloads
// driven through the system's public entry points, end-to-end metrics from
// an untraced pass and per-layer metrics from a traced one. See README.md.
//
//	bash benchmark/run.sh --workload solo-compute --seed 11 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/stats"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 11, "seed of the packet-loss draws (solo-lossy) and of the evaluation teachers miou is taken against; streams and server teachers are fixed, so on the other workloads the system's inputs do not depend on it")
		seconds = flag.Int("seconds", runSeconds, "run length: sets the per-client frame count to the workload's reference rate × seconds")
		traced  = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: untraced then traced pass and the layer table, per-layer metrics")
		aa      = flag.Int("aa", 0, "A/A mode: run every workload this many times on this binary, run i with seed+i as the driver's acceptance check does, and compare the spread of each end-to-end metric with its bound")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json from the binary's workload and metric tables and exit")
		spin    = flag.Bool("spin", false, "internal: run as one of the idle-priority spinners that keep the CPUs clocked up")
	)
	flag.Parse()
	var err error
	switch {
	case *spin:
		spinForever()
	case *spec:
		err = printSpec()
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds)
	default:
		err = runWorkload(*name, *seed, *seconds, *traced != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkload is one invocation by the driver: set up, measure, check,
// print. A failed check is an error after the result line is printed.
func runWorkload(name string, seed int64, seconds int, traced bool) error {
	began := time.Now()
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	frames := w.framesFor(seconds)
	if frames < 2 {
		return fmt.Errorf("need at least 2 frames, got %d", frames)
	}
	stop, err := keepCPUsBusy()
	if err != nil {
		return err
	}
	defer stop()

	plain, err := runPass(w, seed, frames, false, began)
	if err != nil {
		return err
	}
	res := result{Attempted: plain.keyFrames, Failed: plain.failedOps}
	problems := append(plain.problems, checkHidden(w, plain)...)
	defs := endToEnd
	if !traced {
		res.Metrics = endToEndMetrics(plain)
		printTable(w, plain, endToEnd, res.Metrics)
	} else {
		defs = perLayer
		tr, err := runPass(w, seed, frames, true, time.Now())
		if err != nil {
			return err
		}
		for _, m := range append(tr.problems, checkHidden(w, tr)...) {
			problems = append(problems, "traced pass: "+m)
		}
		res.Attempted += tr.keyFrames
		res.Failed += tr.failedOps
		problems = append(problems, compareDeterministic(w, plain, tr)...)
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return err
		}
		res.Metrics = perLayerMetrics(plain, tr)
		layers, err := layerTable(seed)
		if err != nil {
			return fmt.Errorf("layer table: %w", err)
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		printTable(w, tr, perLayer, res.Metrics)
		fmt.Printf("spans written to %s\n", path)
	}
	for _, def := range defs {
		v, ok := res.Metrics[def.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s missing or not finite", def.name))
			res.Metrics[def.name] = value{0, def.unit}
		}
	}
	res.Correct = len(problems) == 0
	for _, m := range problems {
		fmt.Fprintln(os.Stderr, "benchmark: CHECK FAILED:", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d checks failed", len(problems))
	}
	return nil
}

// spanDir is where a traced pass writes its spans, relative to the root of
// the checkout the benchmark runs from.
var spanDir = filepath.Join("benchmark", "out")

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 20

// printSpec writes BENCHMARK.json to standard output.
func printSpec() error {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, entry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		spec.EndToEnd = append(spec.EndToEnd, entry{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, entry{Name: d.name, Unit: d.unit, Better: d.better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// collect returns an empty metric set and the function that fills it, which
// takes each metric's unit from its definition in defs.
func collect(defs []metricDef) (map[string]value, func(name string, v float64)) {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	m := map[string]value{}
	return m, func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("benchmark: metric " + name + " has no definition")
		}
		m[name] = value{v, unit}
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// endToEndMetrics is what a user of the system sees, from an untraced pass.
func endToEndMetrics(p *pass) map[string]value {
	totalFrames := p.totalFrames()
	m, set := collect(endToEnd)
	set("setup_s", p.setup.Seconds())
	set("fps", p.fps())
	set("frame_p25_ms", stats.Percentile(p.latency, 25))
	set("keyframe_rtt_p50_ms", stats.Median(p.rtt))
	set("keyframe_rtt_p90_ms", stats.Percentile(p.rtt, 90))
	set("miou", p.miou)
	set("keyframe_ratio", float64(p.keyFrames)/totalFrames)
	set("wire_kb_per_frame", float64(p.upBytes+p.downBytes)/1000/totalFrames)
	set("cpu_ms_per_frame", ms(p.cpu)/totalFrames)
	set("peak_rss_mb", peakRSSMB())
	return m
}

// perLayerMetrics reads the traced pass layer by layer; the untraced pass
// of the same invocation gives the tracing overhead.
func perLayerMetrics(plain, tr *pass) map[string]value {
	m, set := collect(perLayer)
	kf := float64(tr.keyFrames)
	st := tr.stats
	teacherMs := durations(tr.spans, "teacher.infer")
	serveMs := durations(tr.spans, "serve.keyframe")
	distillMs := ms(st.DistillTime) / math.Max(1, float64(st.KeyFrames))

	set("video.next_ms", tr.videoMs)
	set("netsim.uplink_ms", stats.Median(durations(tr.spans, "netsim.uplink")))
	set("serve.keyframe_ms", stats.Median(serveMs))
	set("teacher.infer_ms", stats.Median(teacherMs))
	set("teacher.mean_batch", st.Teacher.MeanBatch())
	set("core.distill_ms", distillMs)
	set("core.distill_step_ms", ms(st.MeanStepLatency()))
	set("core.distill_steps", st.MeanDistillSteps())
	// Means throughout, because the distiller reports only totals: what is
	// left of the server's key-frame time after teacher and optimisation
	// steps — decode, queue wait, the pre-step evaluation, diff encode,
	// journal.
	set("serve.self_ms", stats.Mean(serveMs)-stats.Mean(teacherMs)-distillMs)
	set("netsim.downlink_ms", stats.Median(durations(tr.spans, "netsim.downlink")))
	set("core.frame_p50_ms", stats.Median(tr.latency))
	set("core.frame_p99_ms", stats.Percentile(tr.latency, 99))
	set("core.frame_tail5_ms", tailMean(tr.latency, 0.05))
	set("core.blocked_frame_pct", tr.blockedPct())
	set("core.stride_mean", tr.strideMean)
	set("core.generator_max_late_ms", tr.maxLateMs)
	set("transport.up_bytes_per_keyframe", float64(tr.upBytes)/kf)
	set("transport.down_bytes_per_keyframe", float64(tr.downBytes)/kf)
	sent, lost, rec, retx := tr.packetCounts()
	set("netsim.packets_sent", float64(sent))
	set("netsim.packets_lost", float64(lost))
	set("netsim.packets_recovered", float64(rec))
	set("netsim.retransmits", float64(retx))
	set("netsim.loss_rate_pct", 100*float64(lost)/math.Max(1, float64(sent)))
	payload := tr.up.PayloadBytes.Load() + tr.down.PayloadBytes.Load()
	set("netsim.goodput_mbps", float64(payload)*8/1e6/tr.wall.Seconds())
	set("serve.handshake_ms", tr.handshakeMs)
	set("serve.checkpoint_bytes", float64(st.CheckpointBytes))
	set("serve.sessions_served", float64(st.SessionsServed))
	set("fabric.routed", float64(tr.routed))
	set("fabric.handoffs", float64(tr.handoffs))
	set("fabric.sheds", float64(tr.sheds))
	set("resume.reconnects", float64(tr.reconnects))
	set("resume.replays", float64(tr.replays))
	set("resume.full_resends", float64(tr.fullResends))
	set("resume.recovery_ms", tr.recoveryMs)
	set("resume.stale_frames", float64(tr.staleFrames))
	set("trace_overhead_pct", 100*(plain.fps()-tr.fps())/plain.fps())
	return m
}

// maxBlockedPct is the most frames, in percent, an open-loop pass may have
// slower than 5 × the median. A client that waits for its updates blocks on
// every key frame, about 9% of frames, and at a fixed camera rate each wait
// makes the frames due during it late too; with the updates landing inside
// MIN_STRIDE the share was 0.25 to 1.09% over ten runs. No bounded metric sees the
// difference — fps is pinned at the offered rate and no frame-tail
// statistic is steady enough to carry a bound — so it is a check.
const maxBlockedPct = 4

// checkHidden checks, on an open-loop workload, that the asynchronous path
// still hides the key-frame round trip from the frame loop.
func checkHidden(w workload, p *pass) []string {
	if b := p.blockedPct(); w.paceFPS > 0 && b >= maxBlockedPct {
		return []string{fmt.Sprintf("%.2f%% of frames slower than 5 × the median, want under %d%%: the round trip is no longer hidden", b, maxBlockedPct)}
	}
	return nil
}

// compareDeterministic checks, on the closed-loop single-client workloads,
// that the counts which depend only on the inputs came out the same with
// the taps on and off.
func compareDeterministic(w workload, plain, tr *pass) []string {
	if w.paceFPS > 0 {
		return nil
	}
	var out []string
	eq := func(what string, a, b int64) {
		if a != b {
			out = append(out, fmt.Sprintf("%s differs between untraced and traced pass: %d vs %d", what, a, b))
		}
	}
	eq("key frames", int64(plain.keyFrames), int64(tr.keyFrames))
	eq("uplink bytes", plain.upBytes, tr.upBytes)
	eq("downlink bytes", plain.downBytes, tr.downBytes)
	ps, pl, pr, px := plain.packetCounts()
	ts, tl, trc, tx := tr.packetCounts()
	eq("packets sent", ps, ts)
	eq("packets lost", pl, tl)
	eq("packets recovered", pr, trc)
	eq("retransmits", px, tx)
	// The client applies an update at whichever of the next MIN_STRIDE
	// frames it arrives by, so accuracy repeats to about three decimals.
	if math.Abs(plain.miou-tr.miou) > 0.01 {
		out = append(out, fmt.Sprintf("miou differs between untraced and traced pass: %.4f vs %.4f", plain.miou, tr.miou))
	}
	return out
}

// printTable prints the metrics by name with their units, and for every
// timing the sample count behind its percentiles.
func printTable(w workload, p *pass, defs []metricDef, m map[string]value) {
	loop := "closed loop"
	if w.paceFPS > 0 {
		loop = fmt.Sprintf("open loop at %g FPS per client", w.paceFPS)
	}
	fmt.Printf("workload %s: %s, %d client(s) × %d frames, %.1f s measured\n",
		w.name, loop, w.clients, p.frames, p.wall.Seconds())
	fmt.Printf("  frame latency: p25 %.3f ms, median %.3f ms, p99 %.3f ms, slowest 5%% mean %.3f ms, %.2f%% slower than 5 × median, over %d frames\n",
		stats.Percentile(p.latency, 25), stats.Median(p.latency), stats.Percentile(p.latency, 99), tailMean(p.latency, 0.05), p.blockedPct(), len(p.latency))
	fmt.Printf("  key-frame round trip: median %.3f ms, p90 %.3f ms over %d key frames (%d attempted, %d failed)\n",
		stats.Median(p.rtt), stats.Percentile(p.rtt, 90), len(p.rtt), p.keyFrames, p.failedOps)
	for _, d := range defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  (%s is better, regression bound %.0f%%)", d.better, 100*d.bound)
		}
		fmt.Printf("  %-38s %14.4f %-8s%s\n", d.name, m[d.name].Value, d.unit, bound)
	}
}
