package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The convolution-forward invariants: the packed weight layout is exactly
// the documented quad-major interleave, every backend's batched convolutions
// reproduce its own per-sample loop bitwise (one accumulation order for one
// sample and for many, with the micro-kernel and without it), and results
// do not depend on what a reused workspace lease held before.

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
		packWeightsInto(pd, w.Data, sh.rows, sh.k)
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

// TestGemmAxpyPackedBitwiseVec pins the packed axpy GEMM to the unpacked
// vec kernel bitwise: same panels, same quad order, same zero-skips — what
// the convolution forward computes where the micro-kernel is unavailable.
func TestGemmAxpyPackedBitwiseVec(t *testing.T) {
	rng := rand.New(rand.NewSource(6011))
	for _, d := range [][3]int{{1, 1, 1}, {3, 17, 5}, {4, 16, 8}, {13, 33, 31}, {31, 127, 64}, {8, 120, 9}} {
		m, n, k := d[0], d[1], d[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillRand(rng, a)
		fillRand(rng, b)
		pd := make([]float32, packedSize(m, k))
		packWeightsInto(pd, a, m, k)
		for _, acc := range []bool{false, true} {
			want := make([]float32, m*n)
			got := make([]float32, m*n)
			if acc {
				fillRand(rng, want)
				copy(got, want)
			}
			vecGemmAxpy(want, a, b, m, n, k, k, 1, acc)
			gemmAxpyPacked(got, pd, b, m, n, n, n, k, acc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d n=%d k=%d acc=%v element %d: packed %v != unpacked %v (must be bitwise)",
						m, n, k, acc, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmPackedMicroMatchesAxpy checks the micro-kernel GEMM (all three
// tile paths: 24-wide, 16-wide, axpy column tail) against the axpy packed
// form under the reduction tolerance, including the ragged-row-block and
// accumulate corners. Skipped where the micro-kernel is unavailable — the
// dispatch then is the axpy form itself.
func TestGemmPackedMicroMatchesAxpy(t *testing.T) {
	if !packMicroOK {
		t.Skip("micro-kernel unavailable on this build; the packed GEMM is the axpy form")
	}
	rng := rand.New(rand.NewSource(6029))
	for _, d := range [][3]int{{4, 24, 4}, {1, 16, 3}, {5, 120, 17}, {13, 158, 31}, {96, 120, 27}, {7, 360, 513}, {32, 23, 9}} {
		m, n, k := d[0], d[1], d[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		amax := fillRand(rng, a)
		bmax := fillRand(rng, b)
		pd := make([]float32, packedSize(m, k))
		packWeightsInto(pd, a, m, k)
		tol := parityTol(k, amax, bmax)
		for _, acc := range []bool{false, true} {
			want := make([]float32, m*n)
			got := make([]float32, m*n)
			if acc {
				fillRand(rng, want)
				copy(got, want)
			}
			gemmAxpyPacked(want, pd, b, m, n, n, n, k, acc)
			gemmPackedMicroSub(got, pd, b, m, n, n, n, k, acc)
			assertParity(t, fmt.Sprintf("micro m=%d n=%d k=%d acc=%v", m, n, k, acc), got, want, tol)
		}
	}
}

// conv2DBatchLoopWS is the per-sample loop the batched forms are held to:
// each sample runs ws's backend's own Conv2DWS and lands in its CNHW slot.
func conv2DBatchLoopWS(ws *Workspace, xs []*Tensor, w, b *Tensor, s ConvSpec) *Tensor {
	nb, oc := len(xs), w.Dim(0)
	oh, ow := s.OutSize(xs[0].Dim(1), xs[0].Dim(2))
	res := New(oc, nb, oh, ow)
	for i, x := range xs {
		y := Conv2DWS(ws, x, w, b, s)
		scatterSampleCNHW(res.Data, y.Data, oc, nb, i, oh*ow)
		ws.Put(y)
	}
	return res
}

// conv2DBatchCNHWLoopWS is conv2DBatchLoopWS on a CNHW activation.
func conv2DBatchCNHWLoopWS(ws *Workspace, x, w, b *Tensor, s ConvSpec) *Tensor {
	c, nb, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	xs := make([]*Tensor, nb)
	for i := range xs {
		xs[i] = New(c, h, wid)
		for ch := 0; ch < c; ch++ {
			copy(xs[i].Data[ch*h*wid:(ch+1)*h*wid], x.Data[(ch*nb+i)*h*wid:])
		}
	}
	return conv2DBatchLoopWS(ws, xs, w, b, s)
}

func assertBatchBitwise(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: batched %v != looped %v (contract is bitwise)", label, i, got[i], want[i])
		}
	}
}

// TestConvBatchMatchesPerSampleLoop is the central forward invariant: for
// every backend and both batched entry points, at every spec of the parity
// suite, the fused batch equals a per-sample loop over the same backend's
// own Conv2DWS bitwise — at batch size 1 that is Conv2DWS against
// Conv2DBatchCNHWWS on a one-sample batch.
func TestConvBatchMatchesPerSampleLoop(t *testing.T) {
	for _, name := range Backends() {
		bk, err := BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { checkConvBatchMatchesLoop(t, bk) })
	}
}

func checkConvBatchMatchesLoop(t *testing.T, bk Backend) {
	shapes := []struct{ c, h, w, oc int }{
		{1, 7, 7, 1},
		{3, 13, 11, 5},
		{4, 16, 16, 8},
		{2, 9, 17, 3},
	}
	rng := rand.New(rand.NewSource(6037))
	for _, sh := range shapes {
		for _, spec := range parityConvSpecs {
			oh, ow := spec.OutSize(sh.h, sh.w)
			if oh <= 0 || ow <= 0 {
				continue
			}
			for _, nb := range []int{1, 2, 5} {
				xs := make([]*Tensor, nb)
				for i := range xs {
					xs[i] = New(sh.c, sh.h, sh.w)
					fillRand(rng, xs[i].Data)
				}
				w := New(sh.oc, sh.c, spec.KH, spec.KW)
				fillRand(rng, w.Data)
				bias := New(sh.oc)
				fillRand(rng, bias.Data)
				for _, b := range []*Tensor{nil, bias} {
					label := fmt.Sprintf("%s c=%d h=%d w=%d oc=%d nb=%d spec=%+v bias=%v",
						bk.Name(), sh.c, sh.h, sh.w, sh.oc, nb, spec, b != nil)
					ws := NewWorkspace().SetBackend(bk)
					want := conv2DBatchLoopWS(ws, xs, w, b, spec)
					got := Conv2DBatchWS(ws, xs, w, b, spec)
					assertBatchBitwise(t, label+" WS", got.Data, want.Data)

					// The CNHW form on the scattered batch must agree too.
					x := New(sh.c, nb, sh.h, sh.w)
					for i, s := range xs {
						scatterSampleCNHW(x.Data, s.Data, sh.c, nb, i, sh.h*sh.w)
					}
					wantC := conv2DBatchCNHWLoopWS(ws, x, w, b, spec)
					gotC := Conv2DBatchCNHWWS(ws, x, w, b, spec)
					assertBatchBitwise(t, label+" CNHW", gotC.Data, wantC.Data)
				}
			}
		}
	}
}

// TestConvBatchIgnoresScratchContents locks the batched convolutions to one
// bitwise result across repeated calls on one workspace, on every backend:
// the panel and column leases come back dirty from the previous call (and
// from a deliberately poisoned lease), and nothing of that may reach the
// result.
func TestConvBatchIgnoresScratchContents(t *testing.T) {
	rng := rand.New(rand.NewSource(6047))
	const c, h, w, oc, nb = 3, 16, 24, 9, 4
	spec := Spec(3, 3)
	x := New(c, nb, h, w)
	wt := New(oc, c, 3, 3)
	bias := New(oc)
	fillRand(rng, x.Data)
	fillRand(rng, wt.Data)
	fillRand(rng, bias.Data)
	for _, name := range Backends() {
		bk, err := BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			ws := NewWorkspaceOn(NewPool()).SetBackend(bk)
			golden := Conv2DBatchCNHWWS(ws, x, wt, bias, spec)
			for run := 0; run < 3; run++ {
				for _, n := range []int{packedSize(oc, c*9), 1 << 16} { // the panel and column lease classes
					poison := ws.GetDirty(n)
					poison.Fill(float32(math.NaN()))
					ws.Put(poison)
				}
				got := Conv2DBatchCNHWWS(ws, x, wt, bias, spec)
				if !bitwiseEqual(got.Data, golden.Data) {
					t.Fatalf("%s run %d: batched conv differs from its first result — scratch contents leaked into it", name, run)
				}
				ws.Put(got)
			}
		})
	}
}

// TestDeviceBatchedWithoutMicroKernelIsVecBitwise forces vec's convolution
// forward onto the axpy fallback (as a non-AVX build or SHADOWTUTOR_NOAVX
// would) and re-runs the batched-equals-looped suite there: per-sample and
// batched share one accumulation order in the degraded mode too. (The name
// predates the device backend's fold into vec.)
func TestDeviceBatchedWithoutMicroKernelIsVecBitwise(t *testing.T) {
	if !packMicroOK {
		t.Skip("micro-kernel already unavailable; the main parity suite covers this mode")
	}
	packMicroOK = false
	defer func() { packMicroOK = true }()
	checkConvBatchMatchesLoop(t, vecBackend{})
}

// TestSharedFrozenWeightConcurrentBatches is the shared-teacher case: eight
// goroutines run batched convolutions against one shared weight tensor,
// each packing it into its own workspace's lease. Under -race this checks
// a forward writes nothing the others can see; everywhere it checks every
// goroutine computed the single-goroutine result bitwise.
func TestSharedFrozenWeightConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(6071))
	x := New(3, 4, 12, 12)
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
	golden := Conv2DBatchCNHWWS(NewWorkspace().SetBackend(vecBackend{}), x, gw, gb, spec)

	w, b := mk()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace().SetBackend(vecBackend{})
			for r := 0; r < 4; r++ {
				got := Conv2DBatchCNHWWS(ws, x, w, b, spec)
				if !bitwiseEqual(got.Data, golden.Data) {
					errs <- "batched conv on a shared weight diverged from the single-goroutine result"
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

// FuzzBatchParity fuzzes the batched-equals-looped property over arbitrary
// shapes, batch sizes and conv specs on every registered backend — the
// batched mirror of FuzzBackendParity, run in the CI fuzz smoke.
func FuzzBatchParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(9), uint8(11), uint8(4), uint8(2), uint8(0))
	f.Add(int64(2), uint8(1), uint8(16), uint8(8), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(4), uint8(7), uint8(13), uint8(6), uint8(5), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, c8, h8, w8, oc8, nb8, sp8 uint8) {
		c, h, w := int(c8%5)+1, int(h8%18)+1, int(w8%18)+1
		oc, nb := int(oc8%7)+1, int(nb8%5)+1
		spec := parityConvSpecs[int(sp8)%len(parityConvSpecs)]
		oh, ow := spec.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		x := New(c, nb, h, w)
		wt := New(oc, c, spec.KH, spec.KW)
		bias := New(oc)
		fillRand(rng, x.Data)
		fillRand(rng, wt.Data)
		fillRand(rng, bias.Data)
		for _, name := range Backends() {
			bk, err := BackendByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ws := NewWorkspace().SetBackend(bk)
			want := conv2DBatchCNHWLoopWS(ws, x, wt, bias, spec)
			got := Conv2DBatchCNHWWS(ws, x, wt, bias, spec)
			label := fmt.Sprintf("%s c=%d h=%d w=%d oc=%d nb=%d spec=%+v", name, c, h, w, oc, nb, spec)
			assertBatchBitwise(t, label, got.Data, want.Data)
			ws.Put(got)
		}
	})
}

// BenchmarkPackedMicroGemm isolates the packed GEMM on the teacher's
// dominant layer shapes, reporting achieved GFLOP/s — the kernel-level
// companion to BenchmarkTeacherInferBatch.
func BenchmarkPackedMicroGemm(b *testing.B) {
	for _, sh := range []struct{ m, k, n int }{{96, 864, 1152}, {64, 1728, 1152}, {32, 288, 6144}, {96, 432, 4608}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			pd := make([]float32, packedSize(sh.m, sh.k))
			wd := make([]float32, sh.m*sh.k)
			for i := range wd {
				wd[i] = float32(i%7) * 0.1
			}
			packWeightsInto(pd, wd, sh.m, sh.k)
			bd := make([]float32, sh.k*sh.n)
			for i := range bd {
				bd[i] = float32(i%5) * 0.2
			}
			cd := make([]float32, sh.m*sh.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemmPackedMicroSub(cd, pd, bd, sh.m, sh.n, sh.n, sh.n, sh.k, false)
			}
			flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPs")
		})
	}
}
