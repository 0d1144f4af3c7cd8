package nn

import (
	"testing"

	"repro/internal/tensor"
)

// gradCtx returns a fresh training context for the gradient checks: the
// workspace-free tape on vec when bk is nil, otherwise a tape whose
// workspace is pinned to bk, so every forward and backward kernel —
// including a backend's private conv backward — runs on it.
func gradCtx(bk tensor.Backend) *ForwardCtx {
	if bk == nil {
		return NewForwardCtxWS(true, nil)
	}
	return NewForwardCtxWS(true, tensor.NewWorkspace().SetBackend(bk))
}

// Re-run the package's gradient checks on the reference oracle as well as
// on vec, the compute path.
func TestGradientsUnderEveryBackend(t *testing.T) {
	for _, b := range []struct {
		name string
		bk   tensor.Backend
	}{{"reference", tensor.Reference}, {"vec", nil}} {
		t.Run(b.name, func(t *testing.T) {
			t.Run("ConvSpecGradients", func(t *testing.T) { checkConvSpecGradients(t, b.bk) })
			t.Run("ConvStudentBlockGradient", func(t *testing.T) { checkConvStudentBlockGradient(t, b.bk) })
			t.Run("StudentEndToEndGradient", func(t *testing.T) { checkStudentEndToEndGradient(t, b.bk) })
			t.Run("StudentPartialBackwardPrunes", func(t *testing.T) { checkStudentPartialBackwardPrunes(t, b.bk) })
		})
	}
}
