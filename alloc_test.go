package repro

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/video"
)

// Allocation budgets for the two hot paths, enforced with
// testing.AllocsPerRun so the workspace-pool + blocked-GEMM win of PR 2
// cannot silently regress. Budgets are measured steady-state counts plus
// ~50% headroom; the pre-PR baselines (measured at commit 58389fb) were
// 1062 allocs per student inference and 3931/4990 per partial/full distill
// step, so each budget enforces well over the required 10× reduction. CI
// additionally gates distill_allocs_per_step through the scenario harness
// (alloc/distill-step vs ci/bench_baseline.json).
//
// The remaining steady-state allocations are the per-Parallel-invocation
// job + closure pair and the per-op backward closures of the training tape;
// every tensor on these paths is a workspace lease.
// Budgets are per compute backend: the vec backend's transposed-lowering
// conv runs two parallel loops per conv (lowering + GEMM) instead of the
// reference backend's single fused loop, which costs one pooled-closure
// allocation per conv — bounded and size-independent, so it gets its own
// slightly larger distill budgets rather than slack in the shared ones.
//
// The partial budgets sit below what a partial Train call allocated while
// every pass re-ran the frozen stages (208 reference, 304 vec, against 171
// and 229 now that Student.Prefix runs them once): losing the prefix reuse
// fails them. prefixAllocBudget is exact, not padded: Prefix itself — tape,
// context, activations — allocates nothing in steady state, and what
// remains is one Parallel closure per loop of each of the 19 convolutions
// in in1…SB4 (one loop on reference, two on vec).
var (
	inferAllocBudget          = map[string]float64{"reference": 90, "vec": 90}
	distillPartialAllocBudget = map[string]float64{"reference": 200, "vec": 260}
	distillFullAllocBudget    = map[string]float64{"reference": 460, "vec": 500}
	prefixAllocBudget         = map[string]float64{"reference": 19, "vec": 38}
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
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, name := range tensor.Backends() {
		t.Run(name, func(t *testing.T) {
			bk, err := tensor.BackendByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s, frame := allocStudent(t)
			s.SetBackend(bk)
			got := measureAllocs(func() { s.Infer(frame.Image) })
			budget := inferAllocBudget[name]
			t.Logf("student inference (%s): %.0f allocs/op (budget %.0f, pre-PR baseline 1062)", name, got, budget)
			if budget == 0 {
				t.Fatalf("no inference allocation budget declared for backend %q", name)
			}
			if got > budget {
				t.Fatalf("student inference (%s) allocates %.0f/op, budget %.0f — the zero-allocation hot path regressed", name, got, budget)
			}
		})
	}
}

// TestAllocBudgetStudentPrefix pins the once-per-key-frame pass over the
// frozen stages to the convolution kernels' own closures.
func TestAllocBudgetStudentPrefix(t *testing.T) {
	skipUnderRace(t)
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, name := range tensor.Backends() {
		t.Run(name, func(t *testing.T) {
			bk, err := tensor.BackendByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s, frame := allocStudent(t)
			s.SetBackend(bk)
			s.SetPartial(true)
			got := measureAllocs(func() { s.Prefix(frame.Image) })
			budget, ok := prefixAllocBudget[name]
			if !ok {
				t.Fatalf("no prefix allocation budget declared for backend %q", name)
			}
			if got > budget {
				t.Fatalf("student prefix (%s) allocates %.0f/op, budget %.0f — Prefix must add nothing to its convolutions' closures", name, got, budget)
			}
		})
	}
}

// TestAllocBudgetTeacherInferBatch pins the batched serving path all the
// way to zero under vec, the default backend (named, so the CI matrix's
// SHADOWTUTOR_BACKEND=reference leg still tests it): once the workspace
// pool is warm and the weights carry their packed panels, a steady-state
// InferBatch must not allocate at all — every batched kernel reads
// resident panels into pooled scratch, and the mask buffers are recycled
// across calls.
func TestAllocBudgetTeacherInferBatch(t *testing.T) {
	skipUnderRace(t)
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	vec, err := tensor.BackendByName("vec")
	if err != nil {
		t.Fatal(err)
	}
	s, frame := allocStudent(t)
	s.SetBackend(vec)
	imgs := make([]*tensor.Tensor, 8)
	for i := range imgs {
		imgs[i] = frame.Image
	}
	if got := measureAllocs(func() { s.InferBatch(imgs) }); got != 0 {
		t.Fatalf("batched inference allocates %.0f/op after warm-up; the resident-panel path must be allocation-free", got)
	}
}

func TestAllocBudgetDistillStep(t *testing.T) {
	skipUnderRace(t)
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, backend := range tensor.Backends() {
		for _, mode := range []struct {
			name    string
			partial bool
			budgets map[string]float64
		}{
			{"partial", true, distillPartialAllocBudget},
			{"full", false, distillFullAllocBudget},
		} {
			t.Run(backend+"/"+mode.name, func(t *testing.T) {
				cfg := core.DefaultConfig()
				cfg.Backend = backend
				cfg.Partial = mode.partial
				cfg.Threshold = 0.999 // force a full optimization step every call
				cfg.MaxUpdates = 1
				s, frame := allocStudent(t)
				dist := core.NewDistiller(cfg, s)
				budget := mode.budgets[backend]
				got := measureAllocs(func() { dist.Train(frame, frame.Label) })
				t.Logf("distill step (%s/%s): %.0f allocs/op (budget %.0f)", backend, mode.name, got, budget)
				if budget == 0 {
					t.Fatalf("no %s distill allocation budget declared for backend %q", mode.name, backend)
				}
				if got > budget {
					t.Fatalf("distill step (%s/%s) allocates %.0f/op, budget %.0f — the zero-allocation hot path regressed",
						backend, mode.name, got, budget)
				}
			})
		}
	}
}
