package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The convolution-forward invariants: the packed weight layout is exactly
// the documented quad-major interleave, the packed GEMM forms agree with the
// unpacked kernel, and results do not depend on what a reused workspace
// lease held before or on who else is reading the weight.

// TestPackedWeightsLayout pins the physical packed layout against the
// documented addressing rule: block ib holds rows ib*4..ib*4+3; within a
// block, k position p lives at quad (p/4)*16 + row*4 + p%4 for the aligned
// quads and at 4*k4 + (p-k4)*4 + row for the k%4 tail; rows past the end of
// a ragged final block are zero.
func TestPackedWeightsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(6007))
	for _, sh := range []struct{ rows, k int }{
		{1, 1}, {4, 4}, {5, 7}, {3, 9}, {8, 16}, {13, 31}, {4, 2}, {7, 5},
	} {
		w := New(sh.rows, sh.k)
		fillRand(rng, w.Data)
		k4 := sh.k &^ 3
		bs := packedBlockStride(sh.k)
		nb := (sh.rows + packMR - 1) / packMR
		if got := packedSize(sh.rows, sh.k); got != nb*bs {
			t.Fatalf("packed size: got %d want %d", got, nb*bs)
		}
		pd := make([]float32, nb*bs)
		for i := range pd {
			pd[i] = float32(math.NaN()) // a dirty lease: padding must be written too
		}
		packWeightsInto(pd, w.Data, sh.rows, sh.k, sh.k, 1)
		for ib := 0; ib < nb; ib++ {
			for r := 0; r < packMR; r++ {
				for p := 0; p < sh.k; p++ {
					o := ib*bs + p/4*16 + r*4 + p%4
					if p >= k4 {
						o = ib*bs + 4*k4 + (p-k4)*4 + r
					}
					var want float32
					if i := ib*packMR + r; i < sh.rows {
						want = w.Data[i*sh.k+p]
					}
					if pd[o] != want {
						t.Fatalf("rows=%d k=%d block=%d row=%d p=%d: packed[%d]=%v want %v",
							sh.rows, sh.k, ib, r, p, o, pd[o], want)
					}
				}
			}
		}
	}
}

// TestGemmAxpyPackedBitwiseVec pins the packed GEMM on a dense operand (B's
// rows through the table offs[p] = p*n) to its axpy spans alone bitwise:
// same panels, same quad order, same zero-skips. The axpy spans are every
// column where the micro-kernel is unavailable.
func TestGemmAxpyPackedBitwiseVec(t *testing.T) {
	checkPackedMatchesSpans(t, 6011, [][3]int{
		{1, 1, 1}, {3, 17, 5}, {4, 16, 8}, {13, 33, 31}, {31, 127, 64}, {8, 120, 9},
	})
}

// TestGemmPackedMicroMatchesAxpy pins the packed GEMM's micro-kernel tiles
// and its axpy column remainders to the axpy spans alone bitwise, including
// the ragged-row-block and accumulate corners, k past kcMicro and every
// 1..23-column remainder: a column in a 24-wide tile and one in the axpy
// span of a remainder are both one ascending-k FMA chain, which the conv
// backward's tiled input gradient relies on.
func TestGemmPackedMicroMatchesAxpy(t *testing.T) {
	shapes := [][3]int{{4, 24, 4}, {1, 16, 3}, {5, 120, 17}, {13, 158, 31}, {96, 120, 27}, {7, 360, 513}, {32, 23, 9}}
	for n := 25; n < 48; n++ {
		shapes = append(shapes, [3]int{6, n, 7}) // one tile and a 1..23-column remainder
	}
	checkPackedMatchesSpans(t, 6029, shapes)
}

// checkPackedMatchesSpans runs gemmPacked on a dense operand against one
// axpy span over every row and column (gemmAxpyPackedSpan) for each
// {m, n, k} in shapes, with and without accumulation, on the selected
// kernels and, where those are not already portable, on the portable ones:
// there gemmPacked is the spans alone, cut into ncMicro-column blocks.
func checkPackedMatchesSpans(t *testing.T, seed int64, shapes [][3]int) {
	t.Helper()
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(seed))
		for _, d := range shapes {
			m, n, k := d[0], d[1], d[2]
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			fillRand(rng, a)
			fillRand(rng, b)
			pd := make([]float32, packedSize(m, k))
			packWeightsInto(pd, a, m, k, k, 1)
			ws := NewWorkspace()
			p := newDenseOperand(ws, b, k, n)
			for _, acc := range []bool{false, true} {
				want := make([]float32, m*n)
				got := make([]float32, m*n)
				if acc {
					fillRand(rng, want)
					copy(got, want)
				}
				gemmAxpyPackedSpan(want, pd, b, m, n, p.offs, k, acc, 0, (m+packMR-1)/packMR, 0, n)
				gemmPacked(got, pd, p, m, k, acc)
				if !bitwiseEqual(got, want) {
					t.Fatalf("m=%d n=%d k=%d acc=%v: the packed GEMM differs from its axpy spans (must be bitwise)", m, n, k, acc)
				}
			}
			ws.Put(p.leased)
		}
	}
	t.Run(VecKernelISA(), run)
	if VecKernelISA() != "portable" {
		t.Run("portable", func(t *testing.T) { withPortableKernels(func() { run(t) }) })
	}
}

// TestConvBatchIgnoresScratchContents locks the convolution forward to one
// bitwise result across repeated calls on one workspace, on every backend:
// every lease comes back dirty from the previous call, or poisoned with NaN,
// and nothing of that may reach the result. What is poisoned is derived
// from the code that leases it: the packed weight panel, either backend's
// B operand (vec's planes, reference's lowering) and the result.
func TestConvBatchIgnoresScratchContents(t *testing.T) {
	rng := rand.New(rand.NewSource(6047))
	const c, h, w, oc = 3, 32, 48, 9
	spec := Spec(3, 3)
	x := New(c, h, w)
	wt := New(oc, c, 3, 3)
	bias := New(oc)
	fillRand(rng, x.Data)
	fillRand(rng, wt.Data)
	fillRand(rng, bias.Data)
	for _, bk := range everyBackend {
		name := bk.Name()
		t.Run(name, func(t *testing.T) {
			ws := NewWorkspaceOn(NewPool()).SetBackend(bk)
			golden := Conv2DWS(ws, x, wt, bias, spec)
			oh, ow := spec.OutSize(h, w)
			ckk := c * spec.KH * spec.KW
			planes := newConvPlanes(NewWorkspaceOn(NewPool()), x, spec).leased.Len()
			leases := []int{packedSize(oc, ckk), planes, oh * ow * ckk, oc * oh * ow}
			for run := 0; run < 3; run++ {
				poison := make([]*Tensor, len(leases))
				for i, n := range leases {
					poison[i] = ws.GetDirty(n)
					poison[i].Fill(float32(math.NaN()))
				}
				for _, p := range poison {
					ws.Put(p)
				}
				got := Conv2DWS(ws, x, wt, bias, spec)
				if !bitwiseEqual(got.Data, golden.Data) {
					t.Fatalf("%s run %d: conv differs from its first result — scratch contents leaked into it", name, run)
				}
				ws.Put(got)
			}
		})
	}
}

// TestSharedFrozenWeightConcurrentBatches is the shared-teacher case: eight
// goroutines run convolutions against one shared weight tensor, each packing
// it into its own workspace's lease. Under -race this checks a forward
// writes nothing the others can see; everywhere it checks every goroutine
// computed the single-goroutine result bitwise.
func TestSharedFrozenWeightConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(6071))
	x := New(3, 24, 24)
	fillRand(rng, x.Data)
	spec := Spec(3, 3)
	mk := func() (*Tensor, *Tensor) {
		w, b := New(8, 3, 3, 3), New(8)
		r := rand.New(rand.NewSource(6073))
		fillRand(r, w.Data)
		fillRand(r, b.Data)
		return w, b
	}
	gw, gb := mk()
	golden := Conv2DWS(NewWorkspace().SetBackend(vecBackend{}), x, gw, gb, spec)

	w, b := mk()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace().SetBackend(vecBackend{})
			for r := 0; r < 4; r++ {
				got := Conv2DWS(ws, x, w, b, spec)
				if !bitwiseEqual(got.Data, golden.Data) {
					errs <- "conv on a shared weight diverged from the single-goroutine result"
					return
				}
				ws.Put(got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// FuzzBatchParity fuzzes vec's convolution forward against reference over
// arbitrary shapes and conv specs under TestBackendParityConv2D's tolerance
// — the convolution mirror of FuzzBackendParity, run in the CI fuzz smoke —
// and, on every shape, its forward, dW and db against the lowering's bit
// for bit (checkIndirectMatchesLowered). nb8 below 32 leaves the shape as
// drawn (the corpus before nb8 had a use); above, its high bits add 16
// channels each (reductions past kcMicro) and its low bit widens the plane
// by 24 (the micro-kernel's 24-wide tiles).
func FuzzBatchParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(9), uint8(11), uint8(4), uint8(2), uint8(0))
	f.Add(int64(2), uint8(1), uint8(16), uint8(8), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(4), uint8(7), uint8(13), uint8(6), uint8(5), uint8(9))
	// 13x1 and 1x13 planes under a 5x5 same-padded kernel: kernel columns
	// and rows that never land inside the image.
	f.Add(int64(1), uint8(56), uint8(66), uint8(0), uint8(4), uint8(2), uint8(52))
	f.Add(int64(-85), uint8(216), uint8(0), uint8(246), uint8(26), uint8(3), uint8(16))
	// Stride-1 same-size shapes: 3x3 with c=113 (ckk 1017) on 8x40 into 6
	// channels (padded planes); 3x1 c=35 on 10x32 into 7; 1x3 c=21 on 5x36
	// (h*w%8 == 4: shifted copies, dW on dot4f rows); 3x3 c=66 (ckk 594)
	// on sb5's 8x12 (w%8 == 4, one segment per row of B) into 3; 5x5 on
	// 3x16.
	f.Add(int64(4), uint8(0), uint8(7), uint8(15), uint8(5), uint8(225), uint8(0))
	f.Add(int64(5), uint8(2), uint8(9), uint8(7), uint8(6), uint8(65), uint8(2))
	f.Add(int64(6), uint8(4), uint8(4), uint8(11), uint8(2), uint8(33), uint8(3))
	f.Add(int64(7), uint8(1), uint8(7), uint8(11), uint8(2), uint8(128), uint8(0))
	f.Add(int64(8), uint8(1), uint8(2), uint8(15), uint8(3), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, c8, h8, w8, oc8, nb8, sp8 uint8) {
		c, h, w := int(c8%5)+1, int(h8%18)+1, int(w8%18)+1
		oc := int(oc8%7) + 1
		if nb8 >= 32 {
			c += 16 * int(nb8>>5)
			w += 24 * int(nb8&1)
		}
		spec := parityConvSpecs[int(sp8)%len(parityConvSpecs)]
		oh, ow := spec.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		x := New(c, h, w)
		wt := New(oc, c, spec.KH, spec.KW)
		bias := New(oc)
		xmax := fillRand(rng, x.Data)
		wmax := fillRand(rng, wt.Data)
		fillRand(rng, bias.Data)
		want := Conv2DWS(NewWorkspace().SetBackend(refBackend{}), x, wt, bias, spec)
		got := Conv2DWS(NewWorkspace().SetBackend(vecBackend{}), x, wt, bias, spec)
		label := fmt.Sprintf("c=%d h=%d w=%d oc=%d spec=%+v", c, h, w, oc, spec)
		assertParity(t, label, got.Data, want.Data, parityTol(c*spec.KH*spec.KW, xmax, wmax))
		checkIndirectMatchesLowered(t, rng, c, h, w, oc, spec)
	})
}

// BenchmarkPackedGemm isolates the packed GEMM on a dense operand at the
// teacher's dominant layer shapes, reporting achieved GFLOP/s.
func BenchmarkPackedGemm(b *testing.B) {
	for _, sh := range []struct{ m, k, n int }{{96, 864, 1152}, {64, 1728, 1152}, {32, 288, 6144}, {96, 432, 4608}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			pd := make([]float32, packedSize(sh.m, sh.k))
			wd := make([]float32, sh.m*sh.k)
			for i := range wd {
				wd[i] = float32(i%7) * 0.1
			}
			packWeightsInto(pd, wd, sh.m, sh.k, sh.k, 1)
			bd := make([]float32, sh.k*sh.n)
			for i := range bd {
				bd[i] = float32(i%5) * 0.2
			}
			p := newDenseOperand(NewWorkspace(), bd, sh.k, sh.n)
			cd := make([]float32, sh.m*sh.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemmPacked(cd, pd, p, sh.m, sh.k, false)
			}
			flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPs")
		})
	}
}

// TestConvBackwardInputTiledBitwise pins the conv backward's tiled input
// gradient to the whole-matrix form bitwise: all of dcols = W^T x gy
// through MatMulATBInto, the packed GEMM over every row at once, then one
// col2im scatter — on the selected kernels, over channel counts that leave
// a ragged final tile.
func TestConvBackwardInputTiledBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(6037))
	for _, sh := range []struct{ c, h, w, oc int }{{1, 7, 9, 2}, {3, 13, 11, 5}, {6, 12, 16, 9}, {16, 8, 24, 16}} {
		for _, spec := range parityConvSpecs {
			oh, ow := spec.OutSize(sh.h, sh.w)
			if oh <= 0 || ow <= 0 {
				continue
			}
			x := New(sh.c, sh.h, sh.w)
			w := New(sh.oc, sh.c, spec.KH, spec.KW)
			gy := New(sh.oc, oh, ow)
			fillRand(rng, x.Data)
			fillRand(rng, w.Data)
			fillRand(rng, gy.Data)
			ckk, hw := sh.c*spec.KH*spec.KW, oh*ow
			dcols := New(ckk, hw)
			MatMulATBInto(dcols, w.Reshape(sh.oc, ckk), gy.Reshape(sh.oc, hw), false)
			want := New(sh.c, sh.h, sh.w)
			vecCol2imT(want, dcols.Data, 0, sh.c, spec, oh, ow)
			got, _, _ := vecBackend{}.Conv2DBackwardWS(NewWorkspace(), x, w, gy, spec, true)
			if !bitwiseEqual(got.Data, want.Data) {
				t.Fatalf("c=%d h=%d w=%d oc=%d spec=%+v: tiled dx differs from the whole-matrix form",
					sh.c, sh.h, sh.w, sh.oc, spec)
			}
		}
	}
}

// TestRowSumsBitwise pins the bias gradient's four-chain row sums to one
// sequential sum per row bitwise, over row counts that leave every
// leftover and values spread over magnitudes, where any reassociation
// shows.
func TestRowSumsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(6043))
	for rows := 1; rows <= 9; rows++ {
		for _, n := range []int{0, 1, 7, 96, 1537} {
			g := make([]float32, rows*n)
			for i := range g {
				g[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
			}
			got := make([]float32, rows)
			rowSums(got, g, n)
			for r := 0; r < rows; r++ {
				var want float32
				for _, v := range g[r*n : (r+1)*n] {
					want += v
				}
				if math.Float32bits(got[r]) != math.Float32bits(want) {
					t.Fatalf("rows=%d n=%d row %d: %v, the one-row sum gives %v", rows, n, r, got[r], want)
				}
			}
		}
	}
}

// scatterCol2im is the col2im scatter one element at a time: every lowered
// entry whose input position is inside the plane is added to it, rows in
// ascending order.
func scatterCol2im(dst *Tensor, cd []float32, s ConvSpec, oh, ow int) {
	c, h, w := dst.Dim(0), dst.Dim(1), dst.Dim(2)
	kk := s.KH * s.KW
	for p := 0; p < c*kk; p++ {
		ch, r := p/kk, p%kk
		ky, kx := r/s.KW, r%s.KW
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy, ix := oy*s.SH-s.PH+ky, ox*s.SW-s.PW+kx
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					dst.Data[(ch*h+iy)*w+ix] += cd[p*oh*ow+oy*ow+ox]
				}
			}
		}
	}
}

// TestCol2imSpanBitwise pins vecCol2imT's one-add-per-row span form to the
// element-by-element scatter bitwise, on the selected and the portable
// saxpy: the student's same-padded 3x3, 3x1 and 1x3 kernels and the 1x1,
// on planes down to narrower and shorter than the kernel's reach, with
// lowered rows salted with NaN, ±Inf and -0 (the span clears the entries
// that wrap, so none may leak into the plane).
func TestCol2imSpanBitwise(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(6053))
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
		for _, spec := range []ConvSpec{Spec(3, 3), Spec(3, 1), Spec(1, 3), Spec(1, 1), Spec(5, 5)} {
			for _, hw := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 9}, {9, 1}, {3, 3}, {7, 5}, {12, 16}, {32, 48}} {
				h, w, c := hw[0], hw[1], 3
				oh, ow := spec.OutSize(h, w)
				cd := make([]float32, c*spec.KH*spec.KW*oh*ow)
				fillRand(rng, cd)
				for i := range cd {
					if rng.Intn(64) == 0 {
						cd[i] = specials[rng.Intn(len(specials))]
					}
				}
				want, got := New(c, h, w), New(c, h, w)
				scatterCol2im(want, cd, spec, oh, ow)
				vecCol2imT(got, append([]float32(nil), cd...), 0, c, spec, oh, ow)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) && !(got.Data[i] != got.Data[i] && want.Data[i] != want.Data[i]) {
						t.Fatalf("spec=%+v h=%d w=%d: dx[%d] = %v, scatter gives %v", spec, h, w, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
	t.Run(VecKernelISA(), run)
	if VecKernelISA() != "portable" {
		s1 := saxpyf
		saxpyf = saxpy
		defer func() { saxpyf = s1 }()
		t.Run("portable", run)
	}
}
