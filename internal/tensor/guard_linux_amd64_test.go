package tensor

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedBytes returns n bytes of fresh memory that end flush against a
// PROT_NONE page, so a read or write one byte past the slice faults.
func guardedBytes(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[size-n : size : size]
}

// guarded copies src into float32s that end flush against a PROT_NONE page.
func guarded(t *testing.T, src []float32) []float32 {
	b := guardedBytes(t, 4*len(src))
	d := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(src))
	copy(d, src)
	return d
}

// guardedInt32 is guarded for a row-offset table.
func guardedInt32(t *testing.T, src []int32) []int32 {
	b := guardedBytes(t, 4*len(src))
	d := unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), len(src))
	copy(d, src)
	return d
}

// noFault runs f with memory faults turned into panics, failing the test
// on one instead of killing the binary.
func noFault(t *testing.T, label string, f func()) {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %v", label, r)
		}
	}()
	f()
}

func randSlice(rng *rand.Rand, n int) []float32 {
	d := make([]float32, n)
	fillRand(rng, d)
	return d
}

// TestKernelsStayInsideOperands runs the AVX2 micro-kernels and their Go
// drivers with every operand ending flush against a PROT_NONE page, over
// ragged shapes: a kernel that reads or writes one float past an operand
// faults here, in go test, instead of in a benchmark run. Each guarded
// result must also equal the same call on ordinary memory.
func TestKernelsStayInsideOperands(t *testing.T) {
	if packTileInd24f == nil {
		t.Skip("the AVX2+FMA kernels are not selected")
	}
	rng := rand.New(rand.NewSource(9001))
	same := func(label string, got, want []float32) {
		t.Helper()
		if !sameBits32(got, want) {
			t.Fatalf("%s: the guarded result differs from the heap one", label)
		}
	}

	// The micro-kernel on its own, B's rows through a table at a fixed
	// stride ldb: the tile's last row and B's last row end flush.
	for _, nq := range []int{0, 1, 3} {
		for _, nt := range []int{0, 1, 3} {
			for _, ld := range [][2]int{{24, 24}, {29, 27}} {
				ldc, ldb := ld[0], ld[1]
				kk := 4*nq + nt
				nb := 0
				if kk > 0 {
					nb = (kk-1)*ldb + 24
				}
				offs := make([]int32, kk)
				for p := range offs {
					offs[p] = int32(p * ldb)
				}
				c, ap, b := randSlice(rng, 3*ldc+24), randSlice(rng, 16*nq+4*nt), randSlice(rng, nb)
				for _, load := range []bool{false, true} {
					label := fmt.Sprintf("packTileInd4x24AVX nq=%d nt=%d ldc=%d ldb=%d load=%v", nq, nt, ldc, ldb, load)
					gc, gap, gb, goffs := guarded(t, c), guarded(t, ap), guarded(t, b), guardedInt32(t, offs)
					want := append([]float32(nil), c...)
					noFault(t, label, func() { packTileInd4x24AVX(gc, ldc, gap, gb, goffs, nq, nt, load) })
					packTileInd4x24AVX(want, ldc, ap, b, offs, nq, nt, load)
					same(label, gc, want)
				}
			}
		}
	}

	for _, n := range []int{1, 7, 8, 9, 23} {
		label := fmt.Sprintf("axpy4AVX n=%d", n)
		d, x0, x1, x2, x3 := randSlice(rng, n), randSlice(rng, n), randSlice(rng, n), randSlice(rng, n), randSlice(rng, n)
		gd := guarded(t, d)
		g0, g1, g2, g3 := guarded(t, x0), guarded(t, x1), guarded(t, x2), guarded(t, x3)
		noFault(t, label, func() { axpy4AVX(gd, 0.5, -1.25, 2, 0.75, g0, g1, g2, g3) })
		axpy4AVX(d, 0.5, -1.25, 2, 0.75, x0, x1, x2, x3)
		same(label, gd, d)
	}

	// The packed GEMM on a row-table operand of one segment per row, B's
	// rows ldb apart: 24-wide tiles, 1..23-column remainders, ragged row
	// blocks and k past kcMicro.
	for _, sh := range []struct{ m, n, ldb, k int }{
		{5, 41, 41, 13}, {8, 23, 27, 520}, {7, 17, 20, 3}, {4, 48, 48, 1}, {9, 5, 5, 9}, {8, 47, 50, 600},
	} {
		label := fmt.Sprintf("gemmPacked row table %+v", sh)
		pd := make([]float32, packedSize(sh.m, sh.k))
		packWeightsInto(pd, randSlice(rng, sh.m*sh.k), sh.m, sh.k, sh.k, 1)
		c, b := randSlice(rng, sh.m*sh.n), randSlice(rng, (sh.k-1)*sh.ldb+sh.n)
		offs := make([]int32, sh.k)
		for p := range offs {
			offs[p] = int32(p * sh.ldb)
		}
		p := bOperand{pl: b, offs: offs, h: 1, w: sh.n, wp: sh.n}
		gp := bOperand{pl: guarded(t, b), offs: guardedInt32(t, offs), h: 1, w: sh.n, wp: sh.n}
		for _, acc := range []bool{false, true} {
			gc, gpd := guarded(t, c), guarded(t, pd)
			want := append([]float32(nil), c...)
			noFault(t, label, func() { gemmPacked(gc, gpd, gp, sh.m, sh.k, acc) })
			gemmPacked(want, pd, p, sh.m, sh.k, acc)
			same(label, gc, want)
		}
	}

	// The kernels on every layout of a convolution's B (newConvPlanes),
	// through their drivers: packTileInd4x24AVX under gemmPacked, and
	// dot3x4IndAVX under vecGemmDotInd or, for a one-segment row whose
	// length is not a multiple of 8, dot4AVX and dotAVX. Every layout's
	// farthest read is its last float, at the end of the table's last and
	// largest entry — padded planes, stride-1 and strided shifted copies
	// (whose phase order keeps the copy with ky = KH-1 last) and the input
	// read in place — so the last tile of the last row and the last B-row
	// group end flush.
	for _, sh := range []struct {
		c, h, w, oc int
		spec        ConvSpec
	}{
		{3, 4, 24, 4, Spec(3, 3)}, {5, 3, 48, 8, Spec(1, 3)}, {2, 5, 40, 5, Spec(3, 1)},
		{70, 2, 24, 7, Spec(3, 3)}, {1, 1, 8, 1, Spec(3, 3)}, {2, 3, 24, 6, Spec(5, 5)},
		{5, 4, 12, 6, Spec(3, 3)}, {3, 8, 12, 4, Spec(1, 3)}, {2, 2, 132, 4, Spec(3, 1)},
		{3, 16, 24, 5, Spec(3, 3).WithStride(2)},                           // 8x12: dot3x4IndAVX
		{4, 9, 13, 6, Spec(3, 3).WithStride(2)},                            // 5x7: dot4AVX on odd rows
		{3, 13, 20, 5, ConvSpec{KH: 3, KW: 3, SH: 2, SW: 3, PH: 2, PW: 1}}, // 8x7
		{2, 11, 14, 6, ConvSpec{KH: 3, KW: 3, SH: 2, SW: 3, PH: 2, PW: 1}}, // 7x5
		{6, 3, 5, 7, Spec(1, 1)},                                           // x in place, 15 floats a row
	} {
		label := fmt.Sprintf("conv B c=%d h=%d w=%d oc=%d spec=%+v", sh.c, sh.h, sh.w, sh.oc, sh.spec)
		ws := NewWorkspace()
		x := New(sh.c, sh.h, sh.w)
		fillRand(rng, x.Data)
		p := newConvPlanes(ws, x, sh.spec)
		last := int(p.offs[len(p.offs)-1])
		for j, o := range p.offs {
			if int(o) > last {
				t.Fatalf("%s: offs[%d] = %d passes the last entry's %d", label, j, o, last)
			}
		}
		if end := last + (p.h-1)*p.wp + p.w; end != len(p.pl) {
			t.Fatalf("%s: the last entry's segment ends at %d, not at the operand's end %d", label, end, len(p.pl))
		}
		gp := p
		gp.pl, gp.offs = guarded(t, p.pl), guardedInt32(t, p.offs)
		ckk, hw := len(p.offs), p.h*p.w
		pd := make([]float32, packedSize(sh.oc, ckk))
		packWeightsInto(pd, randSlice(rng, sh.oc*ckk), sh.oc, ckk, ckk, 1)
		c := randSlice(rng, sh.oc*hw)
		for _, acc := range []bool{false, true} {
			gc, gpd := guarded(t, c), guarded(t, pd)
			want := append([]float32(nil), c...)
			noFault(t, label+" forward", func() { gemmPacked(gc, gpd, gp, sh.oc, ckk, acc) })
			gemmPacked(want, pd, p, sh.oc, ckk, acc)
			same(label+" forward", gc, want)
		}
		gy, tail := randSlice(rng, sh.oc*hw), make([]float32, ckk%4*hw)
		want := make([]float32, sh.oc*ckk)
		gdw, ggy, gtail := guarded(t, want), guarded(t, gy), guarded(t, tail)
		noFault(t, label+" dW", func() { vecGemmDotInd(gdw, ggy, gp, sh.oc, ckk, gtail) })
		vecGemmDotInd(want, gy, p, sh.oc, ckk, tail)
		same(label+" dW", gdw, want)
		ws.Reset()
	}
}
