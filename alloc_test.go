package repro

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/video"
)

// Allocation budgets for the hot paths, enforced with
// testing.AllocsPerRun so the workspace-pool + blocked-GEMM win of PR 2
// cannot silently regress. Budgets are measured steady-state counts plus
// ~50% headroom; the pre-PR baselines (measured at commit 58389fb) were
// 1062 allocs per student inference and 3931/4990 per partial/full distill
// step, so each budget enforces well over the required 10× reduction.
// These tests are the only allocation gate: CI's bench-gate job runs them
// before the scenario smoke matrix. The partial distill-step budget has
// less headroom than the rest: it is held at 67, no looser than the 50.19
// × 1.35 the scenario harness's retired benchdiff gate allowed.
//
// No kernel allocates: every tensor on these paths is a workspace lease and
// no loop builds a closure. What remains is the per-op backward closures of
// the training tape and the handful of result values an inference returns.
// Each budget runs as a sub-test named for the compute path it holds, vec.
//
// The partial budget sits far below what a partial Train call allocated
// while every pass re-ran the frozen stages: losing the prefix reuse fails
// it. The prefix budget is zero and exact: Prefix itself — tape, context,
// activations, the nineteen convolutions of in1…SB4 — allocates nothing in
// steady state.
const (
	inferAllocBudget          = 9   // measured 6
	distillPartialAllocBudget = 67  // measured 50
	distillFullAllocBudget    = 145 // measured 97
	pretrainStepAllocBudget   = 128 // measured 85; the allocating loop it replaced, 1251
)

// allocStudent builds a small-but-real student and one frame without
// touching the (expensive, allocation-heavy) pre-training path.
func allocStudent(t testing.TB) (*nn.Student, video.Frame) {
	t.Helper()
	s := nn.NewStudent(nn.DefaultStudentConfig(), rand.New(rand.NewSource(41)))
	gen, err := video.NewGenerator(video.CategoryConfig(video.Category{Camera: video.Fixed, Scenery: video.People}, 19))
	if err != nil {
		t.Fatal(err)
	}
	return s, gen.Next()
}

// measureAllocs reports steady-state allocations per call of fn: warmup
// populates every lazily-built context and pool class first, and GC is
// disabled so sync.Pool classes are not dumped mid-measurement.
func measureAllocs(fn func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		fn() // warm caches, contexts and pool classes
	}
	return testing.AllocsPerRun(10, fn)
}

// skipUnderRace skips the budget tests in race builds: sync.Pool drops Puts
// at random under the race detector, so pooled leases re-allocate and the
// budgets measure the detector, not the hot path.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector (sync.Pool drops Puts)")
	}
}

func TestAllocBudgetStudentInference(t *testing.T) {
	skipUnderRace(t)
	t.Run("vec", func(t *testing.T) {
		s, frame := allocStudent(t)
		got := measureAllocs(func() { s.Infer(frame.Image) })
		t.Logf("student inference: %.0f allocs/op (budget %d, pre-PR baseline 1062)", got, inferAllocBudget)
		if got > inferAllocBudget {
			t.Fatalf("student inference allocates %.0f/op, budget %d — the zero-allocation hot path regressed", got, inferAllocBudget)
		}
	})
}

// TestAllocBudgetStudentPrefix pins the once-per-key-frame pass over the
// frozen stages to zero allocations.
func TestAllocBudgetStudentPrefix(t *testing.T) {
	skipUnderRace(t)
	t.Run("vec", func(t *testing.T) {
		s, frame := allocStudent(t)
		s.SetPartial(true)
		if got := measureAllocs(func() { s.Prefix(frame.Image) }); got != 0 {
			t.Fatalf("student prefix allocates %.0f/op; Prefix and its convolutions must be allocation-free", got)
		}
	})
}

func TestAllocBudgetDistillStep(t *testing.T) {
	skipUnderRace(t)
	for _, mode := range []struct {
		name    string
		partial bool
		budget  float64
	}{
		{"partial", true, distillPartialAllocBudget},
		{"full", false, distillFullAllocBudget},
	} {
		t.Run("vec/"+mode.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Partial = mode.partial
			cfg.Threshold = 0.999 // force a full optimization step every call
			cfg.MaxUpdates = 1
			s, frame := allocStudent(t)
			dist := core.NewDistiller(cfg, s)
			got := measureAllocs(func() { dist.Train(frame, frame.Label) })
			t.Logf("distill step (%s): %.0f allocs/op (budget %.0f)", mode.name, got, mode.budget)
			if got > mode.budget {
				t.Fatalf("distill step (%s) allocates %.0f/op, budget %.0f — the zero-allocation hot path regressed",
					mode.name, got, mode.budget)
			}
		})
	}
}

// Pre-training (experiments.Pretrain) runs on Distiller.Step under full
// distillation: one training step with no metric pass, on the distiller's
// reused context and buffers. Falling back to an allocating loop — a fresh
// context, loss gradient or parameter list per step — fails this budget.
func TestAllocBudgetPretrainStep(t *testing.T) {
	skipUnderRace(t)
	s, frame := allocStudent(t)
	if h, w := frame.Image.Dim(1), frame.Image.Dim(2); w != 96 || h != 64 {
		t.Fatalf("frame is %dx%d, the budget is for 96x64", w, h)
	}
	dist := core.NewDistiller(core.Config{Partial: false, LearningRate: 0.004, GradClipNorm: 10}, s)
	got := measureAllocs(func() { dist.Step(frame, frame.Label) })
	t.Logf("pre-training step: %.0f allocs/op (budget %d, allocating loop 1251)", got, pretrainStepAllocBudget)
	if got > pretrainStepAllocBudget {
		t.Fatalf("pre-training step allocates %.0f/op, budget %d — it left the zero-allocation training step", got, pretrainStepAllocBudget)
	}
}
