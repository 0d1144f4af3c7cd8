package core

import (
	"slices"
	"testing"

	"repro/internal/teacher"
)

func TestFixedStridePolicyIgnoresMetric(t *testing.T) {
	p := FixedStridePolicy(16)
	if p(8, 0.1) != 16 || p(64, 0.99) != 16 {
		t.Fatal("fixed policy must always return its stride")
	}
}

func TestExponentialBackoffPolicy(t *testing.T) {
	cfg := DefaultConfig()
	p := ExponentialBackoffPolicy(cfg)
	if p(8, 0.9) != 16 {
		t.Fatal("good metric must double the stride")
	}
	if p(32, 0.2) != float64(cfg.MinStride) {
		t.Fatal("bad metric must reset to MIN_STRIDE")
	}
}

func TestStridePolicyOverrideChangesSchedule(t *testing.T) {
	run := func(policy func(stride, metric float64) float64) SimResult {
		sc := simCfg(160)
		sc.DelayFrames = 1
		sc.StridePolicy = policy
		res, err := Simulate(sc, mustCalm(51), teacher.NewOracle(51), teacher.NewOracle(51), tinyStudent(51))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed8 := run(FixedStridePolicy(8))
	fixed64 := run(FixedStridePolicy(64))
	// Fixed-8 must produce roughly 8× the key frames of fixed-64.
	if fixed8.KeyFrames <= fixed64.KeyFrames {
		t.Fatalf("fixed-8 key frames (%d) must exceed fixed-64 (%d)",
			fixed8.KeyFrames, fixed64.KeyFrames)
	}
	// Fixed-8 gaps are exactly 8 after the first frame.
	for i := 1; i < len(fixed8.Schedule); i++ {
		if gap := fixed8.Schedule[i].FrameIndex - fixed8.Schedule[i-1].FrameIndex; gap != 8 {
			t.Fatalf("fixed-8 gap %d at key frame %d", gap, i)
		}
	}
}

func TestStridePolicyStillClamped(t *testing.T) {
	// A policy returning absurd strides must be clamped by the simulator.
	sc := simCfg(120)
	sc.DelayFrames = 1
	sc.StridePolicy = func(_, _ float64) float64 { return 100000 }
	res, err := Simulate(sc, mustCalm(52), teacher.NewOracle(52), teacher.NewOracle(52), tinyStudent(52))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for i := 1; i < len(res.Schedule); i++ {
		gap := res.Schedule[i].FrameIndex - res.Schedule[i-1].FrameIndex
		if gap > cfg.MaxStride+1 {
			t.Fatalf("clamp failed: gap %d", gap)
		}
	}
}

func TestSimulateCustomFreezeHeadOnly(t *testing.T) {
	sc := simCfg(100)
	sc.DelayFrames = 1
	prefixes := []string{"in1", "in2", "sb1", "sb2", "sb3", "sb4", "sb5", "sb6"}
	st := tinyStudent(53)
	before := st.Params.Clone().All()
	res, err := SimulateCustomFreeze(sc, mustCalm(53), teacher.NewOracle(53), teacher.NewOracle(53), st, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if res.KeyFrames == 0 {
		t.Fatal("no key frames")
	}
	// Only the out* head trains, so the diffs the client lands move its
	// head and never its backbone.
	headMoved := false
	for i, p := range st.Params.All() {
		headParam := len(p.Name) >= 3 && p.Name[:3] == "out"
		moved := !slices.Equal(p.Value.Data, before[i].Value.Data)
		if !headParam && moved {
			t.Fatalf("backbone parameter %s moved under head-only cut", p.Name)
		}
		headMoved = headMoved || headParam && moved
	}
	if !headMoved {
		t.Fatal("no head parameter moved under head-only cut")
	}
}
