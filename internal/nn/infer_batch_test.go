package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestInferBatchMatchesLoop is the serving-path invariant behind
// teacher.CNNTeacher.InferBatch: on every backend the fused batched forward
// produces the logits and masks of a per-frame Infer loop bit for bit —
// the convolutions share one accumulation order for one sample and for
// many, and every elementwise helper repeats its tape op's expression.
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
				for i, img := range imgs {
					m, lg := s.Infer(img)
					loopMasks[i] = append([]int32(nil), m...)
					loopLogits[i] = append([]float32(nil), lg.Data...)
				}

				masks := s.InferBatch(imgs)
				ws := tensor.NewWorkspace().SetBackend(bk)
				logits := s.forwardBatch(ws, imgs)
				nc, hw := logits.Dim(0), logits.Dim(2)*logits.Dim(3)
				for i := 0; i < n; i++ {
					for p := 0; p < hw; p++ {
						for ch := 0; ch < nc; ch++ {
							got, want := logits.Data[(ch*n+i)*hw+p], loopLogits[i][ch*hw+p]
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("backend %s n=%d sample %d pos %d class %d: batched logit %v vs looped %v",
									name, n, i, p, ch, got, want)
							}
						}
						if masks[i][p] != loopMasks[i][p] {
							t.Fatalf("backend %s n=%d sample %d pos %d: mask %d != looped %d",
								name, n, i, p, masks[i][p], loopMasks[i][p])
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
