package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Threshold != 0.8 || cfg.MinStride != 8 || cfg.MaxStride != 64 || cfg.MaxUpdates != 8 {
		t.Fatalf("defaults diverge from §5.3: %+v", cfg)
	}
	if !cfg.Partial {
		t.Fatal("partial distillation is the paper's default")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Threshold: 0, MinStride: 1, MaxStride: 2, LearningRate: 0.1},
		{Threshold: 1.5, MinStride: 1, MaxStride: 2, LearningRate: 0.1},
		{Threshold: 0.5, MinStride: 0, MaxStride: 2, LearningRate: 0.1},
		{Threshold: 0.5, MinStride: 4, MaxStride: 2, LearningRate: 0.1},
		{Threshold: 0.5, MinStride: 1, MaxStride: 2, MaxUpdates: -1, LearningRate: 0.1},
		{Threshold: 0.5, MinStride: 1, MaxStride: 2, LearningRate: 0},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
}

// Algorithm 2's ratio function passes through (0,0), (THRESHOLD,1), (1,2).
func TestNextStrideAnchorPoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinStride = 1
	cfg.MaxStride = 1000 // disable clamping for the anchor check
	const s0 = 100.0
	if got := NextStride(cfg, s0, cfg.Threshold); math.Abs(got-s0) > 1e-9 {
		t.Fatalf("metric=THRESHOLD must keep stride: %v", got)
	}
	if got := NextStride(cfg, s0, 1); math.Abs(got-2*s0) > 1e-9 {
		t.Fatalf("metric=1 must double stride: %v", got)
	}
	if got := NextStride(cfg, s0, 0); got != 1 {
		t.Fatalf("metric=0 must clamp to MIN_STRIDE: %v", got)
	}
}

func TestNextStrideClamps(t *testing.T) {
	cfg := DefaultConfig()
	if got := NextStride(cfg, 64, 1); got != float64(cfg.MaxStride) {
		t.Fatalf("stride must clamp at MAX_STRIDE: %v", got)
	}
	if got := NextStride(cfg, 8, 0.01); got != float64(cfg.MinStride) {
		t.Fatalf("stride must clamp at MIN_STRIDE: %v", got)
	}
}

func TestNextStrideDirection(t *testing.T) {
	cfg := DefaultConfig()
	// Above threshold: grow. Below: shrink (within clamps).
	if NextStride(cfg, 16, 0.9) <= 16 {
		t.Fatal("good metric must elongate stride")
	}
	if NextStride(cfg, 16, 0.5) >= 16 {
		t.Fatal("bad metric must shorten stride")
	}
}

// Property: NextStride output is always within [MIN_STRIDE, MAX_STRIDE] and
// is monotone in the metric.
func TestQuickNextStrideInvariants(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stride := float64(cfg.MinStride) + rng.Float64()*float64(cfg.MaxStride-cfg.MinStride)
		m1 := rng.Float64()
		m2 := rng.Float64()
		s1 := NextStride(cfg, stride, m1)
		s2 := NextStride(cfg, stride, m2)
		if s1 < float64(cfg.MinStride) || s1 > float64(cfg.MaxStride) {
			return false
		}
		if m1 < m2 && s1 > s2 {
			return false // monotonicity violated
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperLatencies(t *testing.T) {
	p := PaperLatencies(true)
	f := PaperLatencies(false)
	if p.DistillStep != 13*time.Millisecond || f.DistillStep != 18*time.Millisecond {
		t.Fatalf("t_sd: partial %v, full %v", p.DistillStep, f.DistillStep)
	}
	if p.StudentInference != 143*time.Millisecond || p.TeacherInference != 44*time.Millisecond {
		t.Fatalf("latencies diverge from Table 1 measurements: %+v", p)
	}
}

func TestModeAndConcurrencyStrings(t *testing.T) {
	if ModeShadowTutor.String() != "shadowtutor" || ModeNaive.String() != "naive" || ModeWild.String() != "wild" {
		t.Fatal("mode strings")
	}
}
