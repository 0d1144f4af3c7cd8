package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential backend-parity suite: every registered backend must
// reproduce the reference backend's results within a 1-ulp-scaled tolerance
// on every kernel, and the dense products (ops.go, on vec's kernels) the
// scalar oracle's GEMMs, across randomized shapes including the odd, prime
// and degenerate dimensions blocked kernels historically get wrong
// (remainder lanes, k=0 clears, single-row panels). The oracle itself is
// pinned bitwise to naive triple loops by gemm_test.go; this file anchors
// everything else to it.

// parityDims is the shape pool the property tests draw from: degenerate
// (0, 1), primes that defeat every unroll width (3, 5, 7, 13, 17, 31, 127),
// and power-of-two ± 1 pairs that straddle panel and lane boundaries.
var parityDims = []int{0, 1, 2, 3, 5, 7, 8, 13, 16, 17, 31, 32, 33, 64, 65, 127}

// parityTol returns the allowed absolute difference for one output element
// of a length-k reduction over values bounded by amax·bmax. Backends may
// reassociate the sum (pairwise lane accumulators) and contract mul+add
// into FMA; both perturb a float32 reduction by at most a few ulps per
// term, so the bound scales with k and the operand magnitudes. The +8
// floors the bound for tiny k; the leading 4 covers the lane-combine adds.
func parityTol(k int, amax, bmax float32) float32 {
	const eps32 = 1.1920929e-7
	return 4 * eps32 * float32(k+8) * amax * bmax
}

func fillRand(rng *rand.Rand, d []float32) float32 {
	var amax float32 = 1 // avoid a zero tolerance for empty/zero operands
	for i := range d {
		d[i] = rng.Float32()*2 - 1
		if a := float32(math.Abs(float64(d[i]))); a > amax {
			amax = a
		}
	}
	return amax
}

// assertClose compares one backend's output against the reference output
// element-wise under tol, reporting the worst offender.
func assertParity(t *testing.T, label string, got, want []float32, tol float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length mismatch %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		d := float32(math.Abs(float64(got[i] - want[i])))
		if d > tol || math.IsNaN(float64(got[i])) {
			t.Fatalf("%s: element %d: got %v want %v (|diff| %g > tol %g)",
				label, i, got[i], want[i], d, tol)
		}
	}
}

// everyBackend is the oracle and the compute path, for the contracts both
// keep (determinism, statelessness, scratch independence).
var everyBackend = []Backend{Reference, vecBackend{}}

// nonRefBackends is every backend except reference, which would only be
// compared against itself.
var nonRefBackends = everyBackend[1:]

// checkGemmParity holds the three dense products to the scalar oracle's
// GEMMs (gemmAxpy, gemmDot) on one (m,n,k) shape, with accumulate both
// ways, on freshly randomized operands.
func checkGemmParity(t *testing.T, rng *rand.Rand, m, n, k int) {
	t.Helper()
	a, b := New(m, k), New(k, n)
	amax := fillRand(rng, a.Data)
	bmax := fillRand(rng, b.Data)
	tol := parityTol(k, amax, bmax)

	at := New(k, m) // a transposed, for the TN form
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at.Data[p*m+i] = a.Data[i*k+p]
		}
	}
	bt := New(n, k) // b transposed, for the NT form
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt.Data[j*k+p] = b.Data[p*n+j]
		}
	}
	seed := make([]float32, m*n) // pre-existing dst contents for accumulate
	fillRand(rng, seed)

	want, got := make([]float32, m*n), New(m, n)
	for _, acc := range []bool{false, true} {
		prep := func(dst []float32) {
			copy(dst, seed)
			if !acc {
				// Poison: overwrite semantics must not read stale values.
				for i := range dst {
					dst[i] = float32(math.NaN())
				}
			}
		}
		label := func(form string) string {
			return fmt.Sprintf("%s m=%d n=%d k=%d acc=%v", form, m, n, k, acc)
		}
		prep(want)
		prep(got.Data)
		gemmAxpy(want, a.Data, b.Data, m, n, k, k, 1, acc)
		MatMulInto(got, a, b, acc)
		assertParity(t, label("MatMulInto"), got.Data, want, tol)

		prep(want)
		prep(got.Data)
		gemmAxpy(want, at.Data, b.Data, m, n, k, 1, m, acc)
		MatMulATBInto(got, at, b, acc)
		assertParity(t, label("MatMulATBInto"), got.Data, want, tol)

		if !acc { // the NT form has no accumulate variant
			gemmDot(want, a.Data, bt.Data, m, n, k)
			MatMulABTInto(got, a, bt)
			assertParity(t, label("MatMulABTInto"), got.Data, want, tol)
		}
	}
}

func TestBackendParityGEMM(t *testing.T) {
	t.Run("vec", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1009))
		// Full sweep of the curated pool: every (m,n,k) triple with at most
		// one large dim, so the worst unroll/panel corners are all hit
		// deterministically.
		for _, m := range parityDims {
			for _, n := range parityDims {
				for _, k := range parityDims {
					if m*n*k > 70000 {
						continue
					}
					checkGemmParity(t, rng, m, n, k)
				}
			}
		}
		// Plus randomized larger shapes beyond the curated pool.
		for i := 0; i < 25; i++ {
			m := rng.Intn(90) + 1
			n := rng.Intn(90) + 1
			k := rng.Intn(200) + 1
			checkGemmParity(t, rng, m, n, k)
		}
	})
}

// parityConvSpecs covers the student's kernel shapes (3x3, 3x1, 1x3, 1x1,
// Fig. 3a) plus stride-2 and valid-padding variants, which vec reads
// through strided and unpadded shifted copies.
var parityConvSpecs = []ConvSpec{
	Spec(3, 3),
	Spec(1, 1),
	Spec(3, 1),
	Spec(1, 3),
	Spec(5, 5),
	Spec(3, 3).WithStride(2),
	Spec(5, 5).WithStride(2),
	{KH: 3, KW: 3, SH: 1, SW: 1}, // valid padding
	{KH: 2, KW: 2, SH: 2, SW: 2}, // even kernel, no pad
	{KH: 3, KW: 3, SH: 2, SW: 3, PH: 2, PW: 1}, // mixed strides, asymmetric pad sizes
	{KH: 1, KW: 5, SH: 1, SW: 2, PH: 0, PW: 2}, // wide 1-D kernel, strided
	{KH: 7, KW: 1, SH: 3, SW: 1, PH: 3, PW: 0}, // tall 1-D kernel, strided
}

func TestBackendParityConv2D(t *testing.T) {
	ref := Reference
	shapes := []struct{ c, h, w, oc int }{
		{1, 7, 7, 1},
		{3, 13, 11, 5},
		{4, 16, 16, 8},
		{7, 9, 17, 13},
		{2, 31, 5, 3},
	}
	for _, bk := range nonRefBackends {
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2027))
			for _, sh := range shapes {
				for _, spec := range parityConvSpecs {
					oh, ow := spec.OutSize(sh.h, sh.w)
					if oh <= 0 || ow <= 0 {
						continue
					}
					x := New(sh.c, sh.h, sh.w)
					w := New(sh.oc, sh.c, spec.KH, spec.KW)
					xmax := fillRand(rng, x.Data)
					wmax := fillRand(rng, w.Data)
					tol := parityTol(sh.c*spec.KH*spec.KW, xmax, wmax)
					for _, withBias := range []bool{false, true} {
						var b *Tensor
						if withBias {
							b = New(sh.oc)
							fillRand(rng, b.Data)
						}
						label := fmt.Sprintf("%s conv c=%d h=%d w=%d oc=%d spec=%+v bias=%v",
							bk.Name(), sh.c, sh.h, sh.w, sh.oc, spec, withBias)
						refWS := NewWorkspace().SetBackend(ref)
						bkWS := NewWorkspace().SetBackend(bk)
						want := Conv2DWS(refWS, x, w, b, spec)
						got := Conv2DWS(bkWS, x, w, b, spec)
						assertParity(t, label, got.Data, want.Data, tol)
					}
				}
			}
		})
	}
}

// TestBackendParityConvBackward pins every backend's conv backward to
// reference's generic im2col gradient, for both the frozen
// (needInput=false) and full backward.
func TestBackendParityConvBackward(t *testing.T) {
	ref := Reference
	for _, bk := range nonRefBackends {
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3001))
			for _, sh := range []struct{ c, h, w, oc int }{
				{3, 13, 11, 5},
				{4, 16, 16, 8},
				{1, 7, 9, 2},
			} {
				for _, spec := range parityConvSpecs {
					oh, ow := spec.OutSize(sh.h, sh.w)
					if oh <= 0 || ow <= 0 {
						continue
					}
					x := New(sh.c, sh.h, sh.w)
					w := New(sh.oc, sh.c, spec.KH, spec.KW)
					gy := New(sh.oc, oh, ow)
					xmax := fillRand(rng, x.Data)
					wmax := fillRand(rng, w.Data)
					gmax := fillRand(rng, gy.Data)
					label := fmt.Sprintf("%s convbwd c=%d h=%d w=%d oc=%d spec=%+v",
						bk.Name(), sh.c, sh.h, sh.w, sh.oc, spec)
					for _, needInput := range []bool{false, true} {
						refWS := NewWorkspace().SetBackend(ref)
						bkWS := NewWorkspace().SetBackend(bk)
						wantDX, wantDW, wantDB := Conv2DBackwardWS(refWS, x, w, gy, spec, needInput)
						gotDX, gotDW, gotDB := Conv2DBackwardWS(bkWS, x, w, gy, spec, needInput)
						// dW reduces over OH*OW elements; dx over OC*KH*KW.
						assertParity(t, label+" dw", gotDW.Data, wantDW.Data, parityTol(oh*ow, gmax, xmax))
						assertParity(t, label+" db", gotDB.Data, wantDB.Data, parityTol(oh*ow, gmax, 1))
						if needInput {
							assertParity(t, label+" dx", gotDX.Data, wantDX.Data,
								parityTol(sh.oc*spec.KH*spec.KW, gmax, wmax))
						} else if gotDX != nil || wantDX != nil {
							t.Fatalf("%s: dx returned without needInput", label)
						}
					}
				}
			}
		})
	}
}

// TestBackendDeterminism pins the run-to-run determinism contract: repeated
// runs of the same kernel on the same inputs, into clean and dirty
// destinations, must be bitwise identical — each backend's convolution
// backward and dense GEMMs (the oracle's gemmAxpy and gemmDot; vec's
// package forms).
func TestBackendDeterminism(t *testing.T) {
	const m, n, k = 33, 65, 127
	for _, bk := range everyBackend {
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4001))
			a, b, bt := New(m, k), New(k, n), New(n, k)
			x, w, gy := New(3, 13, 11), New(5, 3, 3, 3), New(5, 13, 11)
			for _, d := range [][]float32{a.Data, b.Data, bt.Data, x.Data, w.Data, gy.Data} {
				fillRand(rng, d)
			}
			kernels := map[string]func(dst *Tensor){
				"MatMulInto":    func(dst *Tensor) { MatMulInto(dst, a, b, false) },
				"MatMulATBInto": func(dst *Tensor) { MatMulATBInto(dst, a.Reshape(k, m), b, false) },
				"MatMulABTInto": func(dst *Tensor) { MatMulABTInto(dst, a, bt) },
			}
			if bk == Reference {
				kernels = map[string]func(dst *Tensor){
					"gemmAxpy NN": func(dst *Tensor) { gemmAxpy(dst.Data, a.Data, b.Data, m, n, k, k, 1, false) },
					"gemmAxpy TN": func(dst *Tensor) { gemmAxpy(dst.Data, a.Data, b.Data, m, n, k, 1, m, false) },
					"gemmDot":     func(dst *Tensor) { gemmDot(dst.Data, a.Data, bt.Data, m, n, k) },
				}
			}
			kernels["conv backward"] = func(dst *Tensor) {
				dx, dw, _ := Conv2DBackwardWS(NewWorkspace().SetBackend(bk), x, w, gy, Spec(3, 3), true)
				clear(dst.Data)
				copy(dst.Data[copy(dst.Data, dw.Data):], dx.Data)
			}
			for name, run := range kernels {
				golden := New(m, n)
				run(golden)
				got := New(m, n)
				for r := 0; r < 3; r++ {
					fillRand(rng, got.Data) // each run overwrites a dirty destination
					run(got)
					if !bitwiseEqual(got.Data, golden.Data) {
						t.Fatalf("%s: run %d differs from the first", name, r)
					}
				}
			}
		})
	}
}

// FuzzBackendParity is the CI fuzz target over the same differential
// property: arbitrary shapes and seeds, the dense products vs the scalar
// oracle's GEMMs. Kept small per execution so the fuzzer explores shapes,
// not runtime. The dense products run on whichever kernel set init
// selected, so CI runs it again under SHADOWTUTOR_NOAVX for the portable
// axpy spans.
func FuzzBackendParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(7))
	f.Add(int64(2), uint8(0), uint8(1), uint8(64))
	f.Add(int64(3), uint8(31), uint8(33), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, k8 uint8) {
		m, n, k := int(m8%48), int(n8%48), int(k8%96)
		checkGemmParity(t, rand.New(rand.NewSource(seed)), m, n, k)
	})
}

// TestBackendRegistry pins who computes what: vec runs everything a caller
// does not pin — nil and unconfigured workspaces, the package-level helpers
// — and Reference is reached only through a workspace's SetBackend, which
// nil undoes.
func TestBackendRegistry(t *testing.T) {
	if got := Reference.Name(); got != "reference" {
		t.Fatalf("Reference.Name() = %q", got)
	}
	var nilWS *Workspace
	if a, b := nilWS.Backend().Name(), NewWorkspace().Backend().Name(); a != "vec" || b != "vec" {
		t.Fatalf("nil and unconfigured workspaces run on %q and %q, want vec", a, b)
	}
	ws := NewWorkspace().SetBackend(Reference)
	if ws.Backend() != Reference {
		t.Fatal("SetBackend(Reference) did not pin the oracle")
	}
	if got := ws.SetBackend(nil).Backend().Name(); got != "vec" {
		t.Fatalf("SetBackend(nil) reverted to %q, want vec", got)
	}
	rng := rand.New(rand.NewSource(4003))
	x, w := New(3, 9, 8), New(5, 3, 3, 3)
	fillRand(rng, x.Data)
	fillRand(rng, w.Data)
	got := Conv2D(x, w, nil, Spec(3, 3))
	want := vecBackend{}.Conv2DWS(NewWorkspace(), x, w, nil, Spec(3, 3))
	if !bitwiseEqual(got.Data, want.Data) {
		t.Fatal("the package-level Conv2D does not run the vec kernel")
	}
}

// TestVecPortableKernelParity forces the vec backend onto its portable Go
// microkernels (as a non-amd64 build or SHADOWTUTOR_NOAVX would) and
// re-runs the GEMM parity sweep, so the fallback path is exercised even on
// machines where init picked the assembly kernels; the exact elementwise
// kernels (Adam, the ReLU mask) must match their assembly forms bitwise.
func TestVecPortableKernelParity(t *testing.T) {
	if VecKernelISA() == "portable" {
		t.Skip("vec backend already on portable kernels; the main suite covers them")
	}
	ad, rg := adamf, reluGradf
	adamf, reluGradf = adamGo, reluGradGo
	defer func() { adamf, reluGradf = ad, rg }()
	checkAdamBitwise(t, ad)
	checkReLUGradBitwise(t, rg)

	rng := rand.New(rand.NewSource(5003))
	withPortableKernels(func() {
		for _, d := range [][3]int{{1, 1, 1}, {3, 5, 7}, {13, 17, 31}, {8, 64, 65}, {31, 127, 33}, {0, 4, 0}, {7, 9, 16}} {
			checkGemmParity(t, rng, d[0], d[1], d[2])
		}
		x := New(3, 13, 11)
		w := New(5, 3, 3, 3)
		xmax := fillRand(rng, x.Data)
		wmax := fillRand(rng, w.Data)
		want := Conv2DWS(NewWorkspace().SetBackend(Reference), x, w, nil, Spec(3, 3))
		got := Conv2DWS(NewWorkspace(), x, w, nil, Spec(3, 3))
		assertParity(t, "portable conv", got.Data, want.Data, parityTol(27, xmax, wmax))
	})
}

// rowwiseGemmDot is the NT product one a row at a time: dot4f over column
// quads, dot1f over the rest — the per-row computation every element of
// vecGemmDotInd's three-row path must reproduce.
func rowwiseGemmDot(cd, ad, bd []float32, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		j := 0
		for ; j+3 < n; j += 4 {
			cd[i*n+j], cd[i*n+j+1], cd[i*n+j+2], cd[i*n+j+3] = dot4f(arow,
				bd[j*k:(j+1)*k], bd[(j+1)*k:(j+2)*k], bd[(j+2)*k:(j+3)*k], bd[(j+3)*k:(j+4)*k])
		}
		for ; j < n; j++ {
			cd[i*n+j] = dot1f(arow, bd[j*k:(j+1)*k])
		}
	}
}

// TestGemmDotThreeRowBitwise pins vecGemmDotInd on a dense operand
// (MatMulABTInto) to the row-at-a-time dot kernels bitwise, on the selected
// kernels and on the portable ones, across row counts with a leftover row
// or two, column counts past a gemmJB tile and with n%4 leftover B rows,
// and reductions at k%8 = 0 (three rows through dot3x4Indf) and at every
// other k%8 (dot4f and dot1f in place).
func TestGemmDotThreeRowBitwise(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(5011))
		for _, d := range [][3]int{{3, 4, 8}, {1, 5, 3}, {4, 7, 9}, {5, 67, 13}, {9, 16, 70}, {16, 144, 61}, {24, 130, 96},
			{16, 67, 144}, {2, 5, 16}, {7, 3, 24}} {
			m, n, k := d[0], d[1], d[2]
			a, b := New(m, k), New(n, k)
			fillRand(rng, a.Data)
			fillRand(rng, b.Data)
			got, want := New(m, n), make([]float32, m*n)
			MatMulABTInto(got, a, b)
			rowwiseGemmDot(want, a.Data, b.Data, m, n, k)
			if !bitwiseEqual(got.Data, want) {
				t.Fatalf("m=%d n=%d k=%d: three-row dot GEMM differs from the row-wise kernels", m, n, k)
			}
		}
	}
	t.Run(VecKernelISA(), run)
	if VecKernelISA() != "portable" {
		t.Run("portable", func(t *testing.T) { withPortableKernels(func() { run(t) }) })
	}
}

// sameBits32 reports whether a and b hold the same float32 bit patterns.
func sameBits32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAdamBitwise runs AdamStep (on whatever adamf holds) and want side by
// side over lengths 0-67 — every lane tail — and one student-sized
// parameter vector, for steps 1-8 of the bias correction, from random
// moments, and fails unless parameters and both moments agree bit for bit.
func checkAdamBitwise(t *testing.T, want func(p, g, m, v []float32, k AdamCoeffs)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7109))
	lens := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 46_213)
	const b1, b2 = float32(0.9), float32(0.999)
	for _, n := range lens {
		for step := 1; step <= 8; step++ {
			k := AdamCoeffs{B1: b1, C1: 1 - b1, B2: b2, C2: 1 - b2,
				BC1: 1 - float32(math.Pow(float64(b1), float64(step))),
				BC2: 1 - float32(math.Pow(float64(b2), float64(step))),
				LR:  0.01, Eps: 1e-8}
			p, g, m, v := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range p {
				p[i] = float32(rng.NormFloat64())
				g[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-6)))
				m[i] = float32(rng.NormFloat64() * 1e-2)
				v[i] = float32(rng.ExpFloat64() * 1e-4)
				if rng.Intn(16) == 0 {
					g[i], m[i], v[i] = 0, 0, 0
				}
			}
			p2, m2, v2 := append([]float32(nil), p...), append([]float32(nil), m...), append([]float32(nil), v...)
			AdamStep(p, g, m, v, k)
			want(p2, g, m2, v2, k)
			if !sameBits32(p, p2) || !sameBits32(m, m2) || !sameBits32(v, v2) {
				t.Fatalf("n=%d step=%d: Adam kernels differ", n, step)
			}
		}
	}
}

// checkReLUGradBitwise runs ReLUGradInto (on whatever reluGradf holds)
// against want over forward inputs salted with NaN, ±0, ±Inf and ±
// denormals, gradients salted the same way (whose bits must pass through
// unchanged), ragged lengths, and dst aliasing grad.
func checkReLUGradBitwise(t *testing.T, want func(dst, x, grad []float32)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7121))
	specials := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40}
	salt := func(d []float32) {
		for i := range d {
			d[i] = float32(rng.NormFloat64())
			if rng.Intn(4) == 0 {
				d[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 40, 1001} {
		x, grad := New(n), New(n)
		salt(x.Data)
		salt(grad.Data)
		wantD := make([]float32, n)
		want(wantD, x.Data, grad.Data)
		got := New(n)
		ReLUGradInto(got, x, grad)
		if !sameBits32(got.Data, wantD) {
			t.Fatalf("n=%d: ReLU-grad kernels differ", n)
		}
		ReLUGradInto(grad, x, grad)
		if !sameBits32(grad.Data, wantD) {
			t.Fatalf("n=%d: ReLU-grad kernels differ with dst aliasing grad", n)
		}
	}
}
