package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// Pre-training is a process-wide once; a short one keeps the tests quick
// without changing any code path.
func TestMain(m *testing.M) {
	if os.Getenv("SHADOWTUTOR_PRETRAIN_STEPS") == "" {
		os.Setenv("SHADOWTUTOR_PRETRAIN_STEPS", "40")
	}
	os.Exit(m.Run())
}

// Every workload runs to the end at a small frame count with all of its
// in-run checks passing, traced and untraced.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p, err := runPass(w, 11, 40, traced, time.Now())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			for _, m := range p.problems {
				t.Errorf("%s traced=%v: %s", w.name, traced, m)
			}
			if p.failedOps != 0 || p.keyFrames == 0 || len(p.rtt) != p.keyFrames {
				t.Errorf("%s traced=%v: %d key frames, %d round trips, %d failed",
					w.name, traced, p.keyFrames, len(p.rtt), p.failedOps)
			}
			if traced && len(durations(p.spans, "serve.keyframe")) != p.keyFrames {
				t.Errorf("%s: %d serve.keyframe spans for %d key frames",
					w.name, len(durations(p.spans, "serve.keyframe")), p.keyFrames)
			}
		}
	}
}

// The taps must not change what the system does. solo-lossy is the
// workload where a tap that hid LinkObservation or SetFECGroup from
// serve.bindLink, or a teacher wrapper that hid InferBatch, would show:
// wire bytes, packet counters and key-frame count must be identical with
// the server-side taps on and off.
func TestTapConformance(t *testing.T) {
	w, err := workloadByName("solo-lossy")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runPass(w, 11, 120, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runPass(w, 11, 120, true, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pass{plain, traced} {
		for _, m := range p.problems {
			t.Error(m)
		}
	}
	for _, m := range compareDeterministic(w, plain, traced) {
		t.Error(m)
	}
	if sent, lost, _, _ := plain.packetCounts(); sent == 0 || lost == 0 {
		t.Errorf("packet tier idle: %d sent, %d lost", sent, lost)
	}
}

// BENCHMARK.json repeats the workload and metric tables; the driver reads
// that file, the binary prints from these.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, binary has %q", i, got.Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, binary has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
}
