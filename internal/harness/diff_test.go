package harness

import (
	"strings"
	"testing"
)

func sampleResults() []Metrics {
	return []Metrics{
		{
			Scenario: "bandwidth-sweep/8mbps-c1-raw", Family: "bandwidth-sweep",
			AggregateFPS: 30, MeanClientFPS: 30, LatencyP50MS: 25, LatencyP99MS: 80,
			KeyFrameRate: 0.12, MeanIoU: 0.7, BytesUpHDMB: 80, BytesDownHDMB: 12,
			MeanDistillSteps: 4, DistillStepMS: 85,
		},
		{
			Scenario: "compression/diff-codecs/int8", Family: "compression",
			Codec: "int8",
			Extra: map[string]float64{"diff_bytes": 120000, "vs_raw": 3.9, "max_abs_error": 0.002},
		},
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := NewBenchFile(sampleResults())
	cur := NewBenchFile(sampleResults())
	regs, _ := Compare(base, cur, nil)
	if len(regs) != 0 {
		t.Fatalf("identical inputs produced regressions: %v", regs)
	}
}

func TestCompareDegradedMetricFails(t *testing.T) {
	base := NewBenchFile(sampleResults())
	degraded := sampleResults()
	degraded[0].AggregateFPS = 10   // -67%, beyond the 50% tolerance
	degraded[0].DistillStepMS = 850 // a 10× slower step, beyond the 200% tolerance
	cur := NewBenchFile(degraded)
	regs, _ := Compare(base, cur, nil)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions (fps, step), got %v", regs)
	}
	var metrics []string
	for _, r := range regs {
		if r.Scenario != "bandwidth-sweep/8mbps-c1-raw" {
			t.Errorf("regression against wrong scenario: %v", r)
		}
		metrics = append(metrics, r.Metric)
	}
	joined := strings.Join(metrics, " ")
	if !strings.Contains(joined, "aggregate_fps") || !strings.Contains(joined, "distill_step_ms") {
		t.Errorf("unexpected regression metrics: %v", metrics)
	}
}

func TestCompareWithinToleranceAndDirections(t *testing.T) {
	base := NewBenchFile(sampleResults())
	drift := sampleResults()
	drift[0].AggregateFPS = 21  // -30%: within the 50% tolerance
	drift[0].LatencyP99MS = 200 // +150%: within the 200% latency tolerance
	drift[0].MeanIoU = 0.9      // improvement on higher-better: never fails
	drift[0].DistillStepMS = 30 // improvement on lower-better: never fails
	regs, _ := Compare(base, NewBenchFile(drift), nil)
	if len(regs) != 0 {
		t.Fatalf("tolerated drift flagged: %v", regs)
	}

	// Tightening the override flips the fps drift into a failure.
	regs, _ = Compare(base, NewBenchFile(drift), map[string]float64{"aggregate_fps": 0.1})
	if len(regs) != 1 || regs[0].Metric != "aggregate_fps" {
		t.Fatalf("override not applied: %v", regs)
	}
}

func TestCompareBothWaysMetric(t *testing.T) {
	base := NewBenchFile(sampleResults())
	moved := sampleResults()
	moved[0].KeyFrameRate = 0.01 // -92%: fewer key frames is still a behaviour change
	regs, _ := Compare(base, NewBenchFile(moved), nil)
	if len(regs) != 1 || regs[0].Metric != "key_frame_rate" {
		t.Fatalf("both-ways gate missed: %v", regs)
	}
}

func TestCompareVanishedLowerBetterMetricFails(t *testing.T) {
	base := NewBenchFile(sampleResults())
	vanished := sampleResults()
	vanished[0].LatencyP99MS = 0  // measurement silently dropped
	vanished[0].DistillStepMS = 0 // ditto
	regs, _ := Compare(base, NewBenchFile(vanished), nil)
	if len(regs) != 2 {
		t.Fatalf("vanished lower-better metrics must fail, got %v", regs)
	}
	for _, r := range regs {
		if r.Metric != "latency_p99_ms" && r.Metric != "distill_step_ms" {
			t.Errorf("unexpected regression: %v", r)
		}
	}
}

func TestCompareMissingScenarioFails(t *testing.T) {
	base := NewBenchFile(sampleResults())
	cur := NewBenchFile(sampleResults()[:1]) // compression row vanished
	regs, _ := Compare(base, cur, nil)
	if len(regs) != 1 || regs[0].Scenario != "compression/diff-codecs/int8" {
		t.Fatalf("missing scenario not flagged: %v", regs)
	}
}

func TestCompareNewScenarioIsNote(t *testing.T) {
	base := NewBenchFile(sampleResults()[:1])
	cur := NewBenchFile(sampleResults())
	regs, notes := Compare(base, cur, nil)
	if len(regs) != 0 {
		t.Fatalf("new scenario treated as regression: %v", regs)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "new scenario") {
			found = true
		}
	}
	if !found {
		t.Errorf("no note about the new scenario: %v", notes)
	}
}

func TestCompareExtraMetricsGatedOnlyByOverride(t *testing.T) {
	base := NewBenchFile(sampleResults())
	worse := sampleResults()
	worse[1].Extra["diff_bytes"] = 480000 // 4× bigger diffs
	regs, _ := Compare(base, NewBenchFile(worse), nil)
	if len(regs) != 0 {
		t.Fatalf("extra metric gated without override: %v", regs)
	}
	regs, _ = Compare(base, NewBenchFile(worse), map[string]float64{"extra.diff_bytes": 0.5})
	if len(regs) != 1 || regs[0].Metric != "extra.diff_bytes" {
		t.Fatalf("extra override not applied: %v", regs)
	}
}

func TestParseTolerances(t *testing.T) {
	got, err := ParseTolerances([]string{"latency_p99_ms=3.0", "extra.diff_bytes=0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if got["latency_p99_ms"] != 3.0 || got["extra.diff_bytes"] != 0.5 {
		t.Errorf("parsed %v", got)
	}
	for _, bad := range []string{"nope", "x=-1", "x=abc"} {
		if _, err := ParseTolerances([]string{bad}); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
