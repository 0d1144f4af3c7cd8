package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// withPortableKernels runs f with the vec backend on its portable Go
// kernels, as a non-amd64 build or SHADOWTUTOR_NOAVX would select them.
func withPortableKernels(f func()) {
	d4, d1, d34i, a4, s1, tile := dot4f, dot1f, dot3x4Indf, axpy4f, saxpyf, packTileInd24f
	dot4f, dot1f, dot3x4Indf, axpy4f, saxpyf, packTileInd24f = dot4, sdot, dot3x4Ind, axpy4, saxpy, nil
	defer func() {
		dot4f, dot1f, dot3x4Indf, axpy4f, saxpyf, packTileInd24f = d4, d1, d34i, a4, s1, tile
	}()
	f()
}

// lowerCHW lowers the CHW activation xd [c, h, w] into dd, the transposed
// im2col matrix [c*KH*KW, oh*ow]: dd[((ch*KH+ky)*KW+kx)*oh*ow + oy*ow + ox].
// It is the B that every layout of newConvPlanes must read, row for row.
func lowerCHW(dd, xd []float32, c, h, w int, s ConvSpec, oh, ow int) {
	kk := s.KH * s.KW
	hw := oh * ow
	for p := 0; p < c*kk; p++ {
		ch, r := p/kk, p%kk
		im2colPlaneT(dd[p*hw:(p+1)*hw], xd[ch*h*w:(ch+1)*h*w], h, w, s, oh, ow, r/s.KW, r%s.KW)
	}
}

// checkIndirectMatchesLowered checks that Conv2DWS and Conv2DBackwardWS,
// which read B through newConvPlanes' row-offset table, give the bits of
// the same kernels on the lowered B: the packed GEMM over the dense
// lowering (newDenseOperand) for the forward, MatMulABTInto against it for
// dW, and rowSums for db.
func checkIndirectMatchesLowered(t *testing.T, rng *rand.Rand, c, h, w, oc int, spec ConvSpec) {
	t.Helper()
	label := fmt.Sprintf("c=%d h=%d w=%d oc=%d spec=%+v", c, h, w, oc, spec)
	oh, ow := spec.OutSize(h, w)
	ckk, hw := c*spec.KH*spec.KW, oh*ow
	x := New(c, h, w)
	wt := New(oc, c, spec.KH, spec.KW)
	bias := New(oc)
	gy := New(oc, oh, ow)
	for _, d := range [][]float32{x.Data, wt.Data, bias.Data, gy.Data} {
		fillRand(rng, d)
	}
	cols := make([]float32, ckk*hw)
	lowerCHW(cols, x.Data, c, h, w, spec, oh, ow)
	pd := make([]float32, packedSize(oc, ckk))
	packWeightsInto(pd, wt.Data, oc, ckk, ckk, 1)
	ws := NewWorkspace()
	lowered := newDenseOperand(ws, cols, ckk, hw)
	for _, b := range []*Tensor{bias, nil} {
		want := make([]float32, oc*hw)
		if b != nil {
			biasPrefill(want, b.Data, oc, hw)
		}
		gemmPacked(want, pd, lowered, oc, ckk, b != nil)
		if got := Conv2DWS(ws, x, wt, b, spec); !sameBits32(got.Data, want) {
			t.Fatalf("%s bias=%v: Conv2DWS differs from the lowered forward", label, b != nil)
		}
	}
	wantW, wantB := New(oc, ckk), make([]float32, oc)
	MatMulABTInto(wantW, gy.Reshape(oc, hw), FromSlice(cols, ckk, hw))
	rowSums(wantB, gy.Data, hw)
	_, gotW, gotB := Conv2DBackwardWS(ws, x, wt, gy, spec, false)
	if !sameBits32(gotW.Data, wantW.Data) || !sameBits32(gotB.Data, wantB) {
		t.Fatalf("%s: Conv2DBackwardWS dW/db differ from the lowered ones", label)
	}
	ws.Reset()
}

// TestIndirectConvMatchesLoweredBitwise pins the convolution forward, dW and
// db on newConvPlanes' layouts to the lowering bit for bit, on the selected
// and the portable kernels: the student's stride-1 same-padded suffix
// shapes (out1/out2, sb6, sb5) and its four strided convs (in1, in2,
// sb2.c33, sb2.proj), a 1x1 direct conv, 3x3/3x1/1x3/5x5 kernels on widths
// with w%8 of 0 (padded planes, segments per output row) and 4 (shifted
// copies, one segment per row of B), output areas that are not a multiple
// of 8 (dW's dot4f rows), every strided, valid-padding and even-kernel
// spec of parityConvSpecs, reductions past kcMicro (sb5's c33 reduces
// 1008), column remainders past the 24-wide tiles, rows wider than
// ncMicro, out-channel counts that leave a ragged row block or a leftover
// dW row, and CKK%4 leftover B rows.
func TestIndirectConvMatchesLoweredBitwise(t *testing.T) {
	type shape struct {
		c, h, w, oc int
		spec        ConvSpec
	}
	shapes := []shape{
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
		{2, 3, 128, 5, Spec(3, 3)},                 // rows wider than ncMicro
		{3, 4, 60, 6, Spec(3, 3)},                  // one 240-float segment, two column blocks
		{24, 8, 12, 24, Spec(1, 3)},                // sb5.c13
		{3, 64, 96, 8, Spec(3, 3).WithStride(2)},   // in1
		{8, 32, 48, 24, Spec(3, 3).WithStride(2)},  // in2
		{24, 16, 24, 56, Spec(3, 3).WithStride(2)}, // sb2.c33
		{24, 16, 24, 56, Spec(1, 1).WithStride(2)}, // sb2.proj
		{16, 8, 12, 9, Spec(1, 1)},                 // out3 at half resolution: read in place
		{5, 3, 3, 6, Spec(3, 3)},                   // a 3x3 output area
		{4, 17, 21, 5, Spec(3, 3).WithStride(2)},   // a 9x11 output area
		{6, 3, 5, 7, Spec(1, 1)},                   // a 1x1 direct conv over 15 floats
	}
	for _, spec := range parityConvSpecs {
		if spec.SH != 1 || spec.SW != 1 || spec.KH%2 == 0 || spec.PH != (spec.KH-1)/2 || spec.PW != (spec.KW-1)/2 {
			shapes = append(shapes, shape{5, 13, 11, 6, spec}, shape{9, 16, 24, 5, spec})
		}
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
