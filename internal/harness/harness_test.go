package harness

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

func TestRegistryCoversAcceptanceMatrix(t *testing.T) {
	// The bandwidth-sweep family is the CI smoke matrix: it must span ≥ 3
	// bandwidth profiles (one of them a time-varying trace), ≥ 2 client
	// counts and ≥ 2 codecs across ≥ 6 scenarios.
	scs, err := Match("bandwidth-sweep/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 6 {
		t.Fatalf("bandwidth-sweep/* matches %d scenarios, want ≥ 6", len(scs))
	}
	profiles := map[string]bool{}
	clients := map[int]bool{}
	codecs := map[string]bool{}
	traced := false
	for _, s := range scs {
		spec := s.Spec
		spec.setDefaults()
		profiles[spec.BandwidthLabel()] = true
		clients[spec.Clients] = true
		codecs[spec.CodecLabel()] = true
		if spec.Trace != nil {
			traced = true
		}
	}
	if len(profiles) < 3 {
		t.Errorf("sweep spans %d bandwidth profiles, want ≥ 3 (%v)", len(profiles), profiles)
	}
	if !traced {
		t.Error("sweep has no time-varying trace scenario")
	}
	if len(clients) < 2 {
		t.Errorf("sweep spans %d client counts, want ≥ 2 (%v)", len(clients), clients)
	}
	if len(codecs) < 2 {
		t.Errorf("sweep spans %d codecs, want ≥ 2 (%v)", len(codecs), codecs)
	}
}

func TestMatchGlobAndExact(t *testing.T) {
	all, err := Match("*/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(All()) {
		t.Errorf("*/* matched %d of %d scenarios (hierarchical names expected)", len(all), len(All()))
	}
	one, err := Match("multiclient/c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Name != "multiclient/c1" {
		t.Errorf("exact match returned %v", one)
	}
	fam, err := Match("fleet/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != 5 {
		t.Errorf("fleet/* matched %d scenarios, want 5", len(fam))
	}
	for _, s := range fam {
		if s.Family() != "fleet" {
			t.Errorf("scenario %s has family %s", s.Name, s.Family())
		}
	}
	none, err := Match("no-such-family/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("bogus glob matched %v", none)
	}
	if _, err := Match("[bad"); err == nil {
		t.Error("malformed glob did not error")
	}
}

func TestWorkloadConfig(t *testing.T) {
	spec := Spec{Workload: "mixed", Seed: 11}
	a, err := workloadConfig(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloadConfig(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Camera == b.Camera && a.Scenery == b.Scenery {
		t.Error("mixed workload gave clients 0 and 1 the same category")
	}
	if _, err := workloadConfig(Spec{Workload: "moving/street", Seed: 1}, 0); err != nil {
		t.Errorf("category workload: %v", err)
	}
	if _, err := workloadConfig(Spec{Workload: "drone", Seed: 1}, 0); err != nil {
		t.Errorf("named workload: %v", err)
	}
	if _, err := workloadConfig(Spec{Workload: "no-such-stream", Seed: 1}, 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestDriveEndToEnd is the harness smoke: two clients on a fast-stepping
// trace with the int8 codec on the diff path, checking every metric the
// schema promises is actually populated.
func TestDriveEndToEnd(t *testing.T) {
	tr := netsim.MustTrace("test-step",
		netsim.TraceStep{At: 0, Bandwidth: 200},
		netsim.TraceStep{At: 500 * time.Millisecond, Bandwidth: 40},
	)
	spec := Spec{
		Workload:  "mixed",
		Clients:   2,
		Frames:    40,
		EvalEvery: 8,
		Seed:      11,
		Trace:     tr,
		Codec:     "int8",
	}
	m, err := Drive("test/e2e", "test", spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scenario != "test/e2e" || m.Family != "test" {
		t.Errorf("identity not carried: %+v", m)
	}
	if m.Bandwidth != "trace:test-step" || m.Codec != "int8" || m.Clients != 2 {
		t.Errorf("spec labels not carried: %+v", m)
	}
	if m.AggregateFPS <= 0 || m.MeanClientFPS <= 0 || m.WallSeconds <= 0 {
		t.Errorf("throughput metrics missing: %+v", m)
	}
	if m.LatencyP50MS <= 0 || m.LatencyP99MS < m.LatencyP50MS {
		t.Errorf("latency percentiles inconsistent: p50 %v p99 %v", m.LatencyP50MS, m.LatencyP99MS)
	}
	if m.KeyFrameRate <= 0 || m.KeyFrameRate > 1 {
		t.Errorf("key-frame rate out of range: %v", m.KeyFrameRate)
	}
	if m.BytesUpHDMB <= 0 || m.BytesDownHDMB <= 0 {
		t.Errorf("traffic metrics missing: %+v", m)
	}
	if m.MeanDistillSteps <= 0 || m.DistillStepMS <= 0 {
		t.Errorf("distill metrics missing: %+v", m)
	}
}

// TestDriveRawUnthrottled covers the no-codec, no-throttle path and that
// diffs still apply (mIoU sane, some updates landed).
func TestDriveRawUnthrottled(t *testing.T) {
	m, err := Drive("test/raw", "test", Spec{
		Workload:  "fixed/people",
		Clients:   1,
		Frames:    40,
		EvalEvery: 8,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bandwidth != "unthrottled" || m.Codec != "raw" {
		t.Errorf("labels: %+v", m)
	}
	if m.MeanIoU <= 0 || m.MeanIoU > 1 {
		t.Errorf("mIoU out of range: %v", m.MeanIoU)
	}
}

func TestRunScenarioOverrides(t *testing.T) {
	scs, err := Match("multiclient/c1")
	if err != nil || len(scs) != 1 {
		t.Fatalf("Match: %v %v", scs, err)
	}
	ms, err := RunScenario(scs[0], Overrides{Frames: 24, EvalEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("driver scenario produced %d rows", len(ms))
	}
	if ms[0].FramesPerClient != 24 {
		t.Errorf("frames override not applied: %+v", ms[0])
	}
	if ms[0].Scenario != "multiclient/c1" || ms[0].Family != "multiclient" {
		t.Errorf("identity: %+v", ms[0])
	}
}
