package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// A pass that needs no gradient holds a layer's activations, not the
// graph's: when Infer returns, the only lease its workspace still has out is
// the half-resolution logits its mask came from, and Prefix keeps exactly
// what it returns — the running activation and the two skips. Without
// Tape.Free these read the op count.
func TestInferenceHoldsOnlyWhatItReturns(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(7)))
	s.SetPartial(true)
	rng := rand.New(rand.NewSource(42))
	img := tensor.New(3, 32, 48)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	s.Infer(img)
	if got := s.inferCtx.Tape.Workspace().Leased(); got != 1 {
		t.Fatalf("after Infer the inference workspace holds %d leases (of %d tape nodes), want 1: the half-resolution logits", got, s.inferCtx.Tape.Len())
	}
	acts := s.Prefix(img)
	if got := s.prefixCtx.Tape.Workspace().Leased(); got != 3 {
		t.Fatalf("after Prefix its workspace holds %d leases, want 3: the SB4 activation and the SB1/SB2 skips", got)
	}
	s.InferFrom(acts)
	if got := s.inferCtx.Tape.Workspace().Leased(); got != 1 {
		t.Fatalf("after InferFrom the inference workspace holds %d leases, want 1: the half-resolution logits", got)
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
