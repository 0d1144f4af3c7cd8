package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The batched-inference invariants: the packed weight layout is exactly the
// documented quad-major interleave, every backend's batched convolutions
// reproduce its own per-sample loop (bitwise where the backend promises it,
// within the parity tolerance on vec's micro-kernel path), results do not
// depend on the worker count, and a weight tensor's panels pack once, are
// reused thereafter, and repack exactly on version bumps.

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
		w.BumpVersion()
		w.packed()
		pw := w.panels.Load()
		if pw.version != w.Version() {
			t.Fatalf("panels stamped version %d, tensor is at %d", pw.version, w.Version())
		}
		k4 := sh.k &^ 3
		bs := packedBlockStride(sh.k)
		nb := (sh.rows + packMR - 1) / packMR
		if len(pw.data) != nb*bs {
			t.Fatalf("packed size: got %d want %d", len(pw.data), nb*bs)
		}
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
					if pw.data[o] != want {
						t.Fatalf("rows=%d k=%d block=%d row=%d p=%d: packed[%d]=%v want %v",
							sh.rows, sh.k, ib, r, p, o, pw.data[o], want)
					}
				}
			}
		}
	}
}

// TestGemmAxpyPackedBitwiseVec pins the packed axpy GEMM to the unpacked
// vec kernel bitwise: same panels, same quad order, same zero-skips — the
// foundation of the vec backend's batched-equals-looped contract.
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
			gemmAxpyPackedRange(got, pd, b, m, n, n, n, k, acc, 0, (m+packMR-1)/packMR)
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
// accumulate corners, at several worker counts. Skipped where the
// micro-kernel is unavailable — the dispatch then is the axpy form itself.
func TestGemmPackedMicroMatchesAxpy(t *testing.T) {
	if !packMicroOK {
		t.Skip("micro-kernel unavailable on this build; the batched GEMM is the axpy form")
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
			gemmAxpyPackedRange(want, pd, b, m, n, n, n, k, acc, 0, (m+packMR-1)/packMR)
			gemmPackedMicroSub(got, pd, b, m, n, n, n, k, acc)
			assertParity(t, fmt.Sprintf("micro m=%d n=%d k=%d acc=%v", m, n, k, acc), got, want, tol)
		}
	}
}

// batchParityTol returns the comparison tolerance for one backend's batched
// convolution against its per-sample loop: zero (bitwise) for backends that
// promise identical accumulation order, the k-scaled reduction tolerance
// for vec's micro-kernel and its sequential FMA chains.
func batchParityTol(bk Backend, ckk int, xmax, wmax float32) float32 {
	if bk.Name() == "vec" && packMicroOK {
		return parityTol(ckk, xmax, wmax)
	}
	return 0
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

func assertBatchClose(t *testing.T, label string, got, want []float32, tol float32) {
	t.Helper()
	if tol == 0 {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: element %d: batched %v != looped %v (contract is bitwise)", label, i, got[i], want[i])
			}
		}
		return
	}
	assertParity(t, label, got, want, tol)
}

// TestConvBatchMatchesPerSampleLoop is the central batched-inference
// invariant: for every registered backend and both batched entry points,
// the fused batch equals a per-sample loop over the same backend's own
// Conv2DWS.
func TestConvBatchMatchesPerSampleLoop(t *testing.T) {
	shapes := []struct{ c, h, w, oc int }{
		{1, 7, 7, 1},
		{3, 13, 11, 5},
		{4, 16, 16, 8},
		{2, 9, 17, 3},
	}
	for _, name := range Backends() {
		bk, err := BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(6037))
			for _, sh := range shapes {
				for _, spec := range parityConvSpecs {
					oh, ow := spec.OutSize(sh.h, sh.w)
					if oh <= 0 || ow <= 0 {
						continue
					}
					for _, nb := range []int{1, 2, 5} {
						xs := make([]*Tensor, nb)
						var xmax float32 = 1
						for i := range xs {
							xs[i] = New(sh.c, sh.h, sh.w)
							if m := fillRand(rng, xs[i].Data); m > xmax {
								xmax = m
							}
						}
						w := New(sh.oc, sh.c, spec.KH, spec.KW)
						wmax := fillRand(rng, w.Data)
						bias := New(sh.oc)
						fillRand(rng, bias.Data)
						tol := batchParityTol(bk, sh.c*spec.KH*spec.KW, xmax, wmax)
						for _, b := range []*Tensor{nil, bias} {
							label := fmt.Sprintf("%s c=%d h=%d w=%d oc=%d nb=%d spec=%+v bias=%v",
								name, sh.c, sh.h, sh.w, sh.oc, nb, spec, b != nil)
							ws := NewWorkspace().SetBackend(bk)
							want := conv2DBatchLoopWS(ws, xs, w, b, spec)
							got := Conv2DBatchWS(ws, xs, w, b, spec)
							assertBatchClose(t, label+" WS", got.Data, want.Data, tol)

							// The CNHW form on the scattered batch must agree too.
							x := New(sh.c, nb, sh.h, sh.w)
							for i, s := range xs {
								scatterSampleCNHW(x.Data, s.Data, sh.c, nb, i, sh.h*sh.w)
							}
							wantC := conv2DBatchCNHWLoopWS(ws, x, w, b, spec)
							gotC := Conv2DBatchCNHWWS(ws, x, w, b, spec)
							assertBatchClose(t, label+" CNHW", gotC.Data, wantC.Data, tol)
						}
					}
				}
			}
		})
	}
}

// TestConvBatchWorkerDeterminism locks the batched convolutions to one
// bitwise result for any worker count, on every backend.
func TestConvBatchWorkerDeterminism(t *testing.T) {
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
			ws := NewWorkspace().SetBackend(bk)
			golden := Conv2DBatchCNHWWS(ws, x, wt, bias, spec)
			for _, workers := range []int{1, 3, 8} {
				prev := SetWorkers(workers)
				got := Conv2DBatchCNHWWS(ws, x, wt, bias, spec)
				SetWorkers(prev)
				for i := range golden.Data {
					if got.Data[i] != golden.Data[i] {
						t.Fatalf("%s workers=%d element %d: %v != golden %v — batched accumulation depends on worker count",
							name, workers, i, got.Data[i], golden.Data[i])
					}
				}
				ws.Put(got)
			}
		})
	}
}

// TestDeviceBatchedWithoutMicroKernelIsVecBitwise forces vec's batched
// convolutions onto the axpy fallback (as a non-AVX build or
// SHADOWTUTOR_NOAVX would) and checks they are then bitwise vec's own
// per-sample loop — the documented degradation mode. (The name predates
// the device backend's fold into vec.)
func TestDeviceBatchedWithoutMicroKernelIsVecBitwise(t *testing.T) {
	if !packMicroOK {
		t.Skip("micro-kernel already unavailable; the main parity suite covers this mode")
	}
	packMicroOK = false
	defer func() { packMicroOK = true }()
	rng := rand.New(rand.NewSource(6053))
	const c, h, w, oc, nb = 3, 12, 10, 5, 3
	x := New(c, nb, h, w)
	bias := New(oc)
	fillRand(rng, x.Data)
	fillRand(rng, bias.Data)
	ws := NewWorkspace().SetBackend(vecBackend{})
	for _, spec := range []ConvSpec{Spec(3, 3), Spec(1, 1), Spec(3, 3).WithStride(2)} {
		wt := New(oc, c, spec.KH, spec.KW)
		fillRand(rng, wt.Data)
		want := conv2DBatchCNHWLoopWS(ws, x, wt, bias, spec)
		got := Conv2DBatchCNHWWS(ws, x, wt, bias, spec)
		assertBatchClose(t, fmt.Sprintf("no-micro %+v", spec), got.Data, want.Data, 0)
	}
}

// TestDeviceResidentPacking walks a weight tensor's panel life cycle under
// vec: the first batched call packs, repeats reuse the same panels (frozen
// weights pack exactly once), each version bump (what an optimizer step or
// CopyFrom does) repacks exactly once, and the repacked panels compute
// with the new contents. (The name predates the device backend's fold into
// vec; the panels used to live in its cache.)
func TestDeviceResidentPacking(t *testing.T) {
	vec := vecBackend{}
	ws := NewWorkspace().SetBackend(vec)
	rng := rand.New(rand.NewSource(6067))
	x := New(3, 2, 8, 8)
	w := New(4, 3, 3, 3)
	fillRand(rng, x.Data)
	fillRand(rng, w.Data)
	if w.panels.Load() != nil {
		t.Fatal("fresh tensor already carries panels")
	}
	run := func() *packedPanels {
		ws.Put(Conv2DBatchCNHWWS(ws, x, w, nil, Spec(3, 3)))
		return w.panels.Load()
	}
	first := run()
	if first == nil || first.version != w.Version() {
		t.Fatalf("first batched call left panels %+v for version %d", first, w.Version())
	}
	for i := 0; i < 3; i++ {
		if p := run(); p != first {
			t.Fatalf("repeat %d repacked frozen weights", i)
		}
	}
	// Per-sample kernels never touch the panels.
	xs := New(3, 8, 8)
	ws.Put(Conv2DWS(ws, xs, w, nil, Spec(3, 3)))
	if w.panels.Load() != first {
		t.Fatal("per-sample conv replaced the panels")
	}

	prev := first
	for bump := 0; bump < 3; bump++ {
		w2 := New(4, 3, 3, 3)
		fillRand(rng, w2.Data)
		w.CopyFrom(w2) // bumps the version, like an optimizer step
		p := run()
		if p == prev || p.version != w.Version() {
			t.Fatalf("bump %d: panels not rebuilt for version %d", bump, w.Version())
		}
		if again := run(); again != p {
			t.Fatalf("bump %d: repacked twice for one version", bump)
		}
		prev = p
		got := Conv2DBatchCNHWWS(ws, x, w, nil, Spec(3, 3))
		want := conv2DBatchCNHWLoopWS(ws, x, w, nil, Spec(3, 3))
		assertBatchClose(t, "post-repack", got.Data, want.Data, batchParityTol(vec, 27, 2, 2))
	}

	// A recycled workspace lease must not carry panels into its next life.
	lease := ws.GetDirty(4, 3, 3, 3)
	copy(lease.Data, w.Data)
	ws.Put(Conv2DBatchCNHWWS(ws, x, lease, nil, Spec(3, 3)))
	ws.Put(lease)
	if again := ws.GetDirty(4, 3, 3, 3); again.panels.Load() != nil {
		t.Fatal("pool recycled a tensor with its panels attached")
	}
}

// TestSharedFrozenWeightConcurrentBatches is the first-use publication
// case: eight goroutines run batched convolutions against one shared,
// never-packed weight tensor. Under -race this checks the panels pointer is
// the only shared write; everywhere it checks every goroutine computed the
// single-goroutine result bitwise, whichever copy of the panels it saw.
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

	w, b := mk() // same values, panels not yet built
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
		xmax := fillRand(rng, x.Data)
		wmax := fillRand(rng, wt.Data)
		fillRand(rng, bias.Data)
		for _, name := range Backends() {
			bk, err := BackendByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ws := NewWorkspace().SetBackend(bk)
			tol := batchParityTol(bk, c*spec.KH*spec.KW, xmax, wmax)
			want := conv2DBatchCNHWLoopWS(ws, x, wt, bias, spec)
			got := Conv2DBatchCNHWWS(ws, x, wt, bias, spec)
			label := fmt.Sprintf("%s c=%d h=%d w=%d oc=%d nb=%d spec=%+v", name, c, h, w, oc, nb, spec)
			assertBatchClose(t, label, got.Data, want.Data, tol)
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
