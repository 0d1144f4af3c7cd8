package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// A pass holds no scratch once it returns: Infer and InferFrom hand every
// lease back before returning (the mask lives in the student's own buffer),
// and Prefix keeps exactly what it returns — the running activation and the
// two skips — until its caller releases them. Without Tape.Free the Prefix
// count would read the op count; without the hand-back the others would not
// read 0.
func TestInferenceHoldsOnlyWhatItReturns(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(7)))
	s.SetPartial(true)
	rng := rand.New(rand.NewSource(42))
	img := tensor.New(3, 32, 48)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	s.Infer(img)
	if got := s.inferCtx.Tape.Workspace().Leased(); got != 0 {
		t.Fatalf("after Infer the inference workspace holds %d leases, want 0", got)
	}
	acts := s.Prefix(img)
	if got := s.prefixCtx.Tape.Workspace().Leased(); got != 3 {
		t.Fatalf("after Prefix its workspace holds %d leases, want 3: the SB4 activation and the SB1/SB2 skips", got)
	}
	s.InferFrom(acts)
	if got := s.inferCtx.Tape.Workspace().Leased(); got != 0 {
		t.Fatalf("after InferFrom the inference workspace holds %d leases, want 0", got)
	}
	if got := s.prefixCtx.Tape.Workspace().Leased(); got != 3 {
		t.Fatalf("after InferFrom the Prefix workspace holds %d leases, want its 3 until ReleasePrefix", got)
	}
	s.ReleasePrefix()
	if got := s.prefixCtx.Tape.Workspace().Leased(); got != 0 {
		t.Fatalf("after ReleasePrefix the Prefix workspace holds %d leases, want 0", got)
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
