package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestInferBatchMatchesLoop is the serving-path invariant behind
// teacher.CNNTeacher.InferBatch: for every registered backend, the fused
// batched forward must produce the same logits as a per-frame Infer loop —
// bitwise where the accumulation order is identical (reference, and vec on
// its portable kernels), and within an end-to-end reassociation tolerance
// on vec's micro-kernel path. Masks are compared with near-tie awareness: where the
// looped top-2 logit gap is inside the tolerance band, either argmax is a
// correct answer and the backends are free to disagree.
func TestInferBatchMatchesLoop(t *testing.T) {
	for _, name := range tensor.Backends() {
		bk, err := tensor.BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(7)))
			s.SetBackend(bk)
			rng := rand.New(rand.NewSource(42))
			for _, n := range []int{1, 3, 8} {
				imgs := make([]*tensor.Tensor, n)
				for i := range imgs {
					imgs[i] = tensor.New(3, 32, 48)
					for j := range imgs[i].Data {
						imgs[i].Data[j] = rng.Float32()
					}
				}
				loopLogits := make([][]float32, n)
				loopMasks := make([][]int32, n)
				var lmax float64
				for i, img := range imgs {
					m, lg := s.Infer(img)
					loopMasks[i] = append([]int32(nil), m...)
					loopLogits[i] = append([]float32(nil), lg.Data...)
					for _, v := range lg.Data {
						if a := math.Abs(float64(v)); a > lmax {
							lmax = a
						}
					}
				}
				// The batched micro-kernel reassociates each reduction, and
				// layer-by-layer those perturbations compound; 1e-3 of the
				// logit scale bounds the compounding across this depth with
				// wide margin (measured divergence is far below it).
				var tol float32
				if name == "vec" && tensor.VecKernelISA() != "portable" {
					tol = float32(1e-3 * math.Max(1, lmax))
				}

				masks := s.InferBatch(imgs)
				ws := tensor.NewWorkspace().SetBackend(bk)
				logits := s.forwardBatch(ws, imgs)
				nc, hw := logits.Dim(0), logits.Dim(2)*logits.Dim(3)
				for i := 0; i < n; i++ {
					for p := 0; p < hw; p++ {
						for ch := 0; ch < nc; ch++ {
							got := logits.Data[(ch*n+i)*hw+p]
							want := loopLogits[i][ch*hw+p]
							if d := float32(math.Abs(float64(got - want))); d > tol {
								t.Fatalf("backend %s n=%d sample %d pos %d class %d: batched logit %v vs looped %v (|diff| %g > tol %g)",
									name, n, i, p, ch, got, want, d, tol)
							}
						}
						if masks[i][p] == loopMasks[i][p] {
							continue
						}
						// Argmax disagrees: only legal on a tolerance backend,
						// and only where the looped top-2 gap is inside the
						// band in which both classes are defensible.
						best, second := float32(math.Inf(-1)), float32(math.Inf(-1))
						for ch := 0; ch < nc; ch++ {
							v := loopLogits[i][ch*hw+p]
							if v > best {
								best, second = v, best
							} else if v > second {
								second = v
							}
						}
						if tol == 0 || best-second > 2*tol {
							t.Fatalf("backend %s n=%d sample %d pos %d: mask %d != looped %d with top-2 gap %g (not a near-tie at tol %g)",
								name, n, i, p, masks[i][p], loopMasks[i][p], best-second, tol)
						}
					}
				}
			}
		})
	}
}

// TestInferBatchMaskOwnership pins the documented buffer contract: the
// returned masks are recycled by the next InferBatch call, so callers that
// keep them must copy (the teacher does).
func TestInferBatchMaskOwnership(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(9)))
	rng := rand.New(rand.NewSource(43))
	mk := func(seed float32) []*tensor.Tensor {
		img := tensor.New(3, 16, 16)
		for j := range img.Data {
			img.Data[j] = rng.Float32() + seed
		}
		return []*tensor.Tensor{img}
	}
	first := s.InferBatch(mk(0))
	second := s.InferBatch(mk(5))
	if &first[0][0] != &second[0][0] {
		t.Fatal("mask buffers were not recycled across InferBatch calls; the zero-steady-state-alloc contract regressed")
	}
}
