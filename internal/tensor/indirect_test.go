package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// withPortableKernels runs f with the vec backend on its portable Go
// kernels, as a non-amd64 build or SHADOWTUTOR_NOAVX would select them.
func withPortableKernels(f func()) {
	d4, d1, d34, d34i, a4, s1, tile := dot4f, dot1f, dot3x4f, dot3x4Indf, axpy4f, saxpyf, packTileInd24f
	dot4f, dot1f, dot3x4f, dot3x4Indf, axpy4f, saxpyf, packTileInd24f = dot4, sdot, dot3x4, dot3x4Ind, axpy4, saxpy, nil
	defer func() {
		dot4f, dot1f, dot3x4f, dot3x4Indf, axpy4f, saxpyf, packTileInd24f = d4, d1, d34, d34i, a4, s1, tile
	}()
	f()
}

// checkIndirectMatchesLowered compares the indirect path's forward with the
// lowering path's bit for bit, and where the shape selects the indirect path
// its weight and bias gradients too, and checks that Conv2DWS and
// Conv2DBackwardWS dispatch to the bits of the lowering path.
func checkIndirectMatchesLowered(t *testing.T, rng *rand.Rand, c, h, w, oc int, spec ConvSpec) {
	t.Helper()
	label := fmt.Sprintf("c=%d h=%d w=%d oc=%d spec=%+v", c, h, w, oc, spec)
	x := New(c, h, w)
	wt := New(oc, c, spec.KH, spec.KW)
	bias := New(oc)
	gy := New(oc, h, w)
	for _, d := range [][]float32{x.Data, wt.Data, bias.Data, gy.Data} {
		fillRand(rng, d)
	}
	ws := NewWorkspace()
	for _, b := range []*Tensor{bias, nil} {
		want := conv2DVec(ws, x, wt, b, spec, false)
		if got := conv2DVec(ws, x, wt, b, spec, true); !sameBits32(got.Data, want.Data) {
			t.Fatalf("%s bias=%v: indirect forward differs from the lowered one", label, b != nil)
		}
		if got := Conv2DWS(ws, x, wt, b, spec); !sameBits32(got.Data, want.Data) {
			t.Fatalf("%s bias=%v: Conv2DWS differs from the lowered forward", label, b != nil)
		}
	}
	_, wantW, wantB := conv2DBackwardVec(ws, x, wt, gy, spec, false, false)
	if convIndirectOK(spec, h, w) {
		_, gotW, gotB := conv2DBackwardVec(ws, x, wt, gy, spec, false, true)
		if !sameBits32(gotW.Data, wantW.Data) || !sameBits32(gotB.Data, wantB.Data) {
			t.Fatalf("%s: indirect dW/db differ from the lowered ones", label)
		}
	}
	_, gotW, gotB := Conv2DBackwardWS(ws, x, wt, gy, spec, false)
	if !sameBits32(gotW.Data, wantW.Data) || !sameBits32(gotB.Data, wantB.Data) {
		t.Fatalf("%s: Conv2DBackwardWS dW/db differ from the lowered ones", label)
	}
	ws.Reset()
}

// TestIndirectConvMatchesLoweredBitwise pins the indirect convolution to the
// lowering path bit for bit — forward output, dW and db — on the selected
// and the portable kernels: the student's stride-1 same-padded suffix
// shapes (out1/out2, sb6, sb5), 3x3/3x1/1x3/5x5 kernels on widths with w%8
// of 0 (segments per output row) and 4 (one segment per row of B),
// reductions past kcMicro (sb5's c33 reduces 1008), column remainders past
// the 24-wide tiles, rows wider than ncMicro, out-channel counts that leave
// a ragged row block or a leftover dW row, and CKK%4 leftover B rows.
func TestIndirectConvMatchesLoweredBitwise(t *testing.T) {
	shapes := []struct {
		c, h, w, oc int
		spec        ConvSpec
	}{
		{16, 32, 48, 16, Spec(3, 3)}, // out1, out2
		{48, 16, 24, 16, Spec(3, 3)}, // sb6.c33
		{16, 16, 24, 16, Spec(3, 1)}, // sb6.c31
		{16, 16, 24, 16, Spec(1, 3)}, // sb6.c13
		{112, 8, 12, 24, Spec(3, 3)}, // sb5.c33
		{112, 4, 16, 6, Spec(3, 3)},  // ckk 1008, no 24-wide tile
		{60, 3, 40, 7, Spec(3, 3)},   // ckk 540, a 16-column remainder, ragged rows
		{3, 6, 48, 6, Spec(3, 3)},    // ckk 27: three leftover B rows
		{5, 6, 32, 5, Spec(3, 1)},    // ckk 15, an 8-column remainder
		{3, 5, 8, 9, Spec(1, 3)},
		{4, 6, 12, 5, Spec(3, 3)},
		{7, 3, 20, 4, Spec(1, 3)},
		{2, 7, 24, 5, Spec(5, 5)},
		{1, 1, 8, 1, Spec(3, 3)},
		{2, 3, 128, 5, Spec(3, 3)},  // rows wider than ncMicro
		{3, 4, 60, 6, Spec(3, 3)},   // one 240-float segment, two column blocks
		{24, 8, 12, 24, Spec(1, 3)}, // sb5.c13
	}
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(7001))
		for _, sh := range shapes {
			checkIndirectMatchesLowered(t, rng, sh.c, sh.h, sh.w, sh.oc, sh.spec)
		}
	}
	t.Run(VecKernelISA(), run)
	if VecKernelISA() != "portable" {
		t.Run("portable", func(t *testing.T) { withPortableKernels(func() { run(t) }) })
	}
}
