package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/tensor"
)

// Gradient checks for every convolution geometry the paper's student uses
// (Fig. 3a: 3×3, 3×1, 1×3, 1×1, plus the stride-2 downsampling forms), run
// on top of the blocked GEMM kernels via autodiff/gradcheck.go. The loss is
// a fixed random weighting of the conv output, so every gradient entry is
// informative.
func TestConvSpecGradients(t *testing.T) { checkConvSpecGradients(t, nil) }

// checkConvSpecGradients is TestConvSpecGradients on bk (see gradCtx).
func checkConvSpecGradients(t *testing.T, bk tensor.Backend) {
	specs := []struct {
		name string
		spec tensor.ConvSpec
	}{
		{"3x3", tensor.Spec(3, 3)},
		{"3x1", tensor.Spec(3, 1)},
		{"1x3", tensor.Spec(1, 3)},
		{"1x1", tensor.Spec(1, 1)},
		{"3x3s2", tensor.Spec(3, 3).WithStride(2)},
		{"1x1s2", tensor.Spec(1, 1).WithStride(2)},
	}
	for si, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + si)))
			const inC, outC, h, w = 2, 3, 6, 8
			x := randUnit(rng, inC, h, w)
			wt := randUnit(rng, outC, inC, tc.spec.KH, tc.spec.KW)
			b := randUnit(rng, outC)
			oh, ow := tc.spec.OutSize(h, w)
			mix := randUnit(rng, outC, oh, ow) // fixed random loss weights

			build := func() float64 {
				tape := gradCtx(bk).Tape
				out := tape.Conv2D(tape.Constant(x), tape.Constant(wt), tape.Constant(b), tc.spec)
				return dotVal(out.Value, mix)
			}

			// Analytic gradients through the tape, with the mix as seed.
			tape := gradCtx(bk).Tape
			xv := tape.Leaf(x, true)
			wv := tape.Leaf(wt, true)
			bv := tape.Leaf(b, true)
			out := tape.Conv2D(xv, wv, bv, tc.spec)
			tape.Backward(out, mix)

			for _, p := range []struct {
				name     string
				param    *tensor.Tensor
				analytic *tensor.Tensor
			}{
				{"weight", wt, wv.Grad},
				{"input", x, xv.Grad},
				{"bias", b, bv.Grad},
			} {
				if p.analytic == nil {
					t.Fatalf("%s: no analytic gradient", p.name)
				}
				numeric := autodiff.NumericGrad(p.param, build, 1e-2)
				if err := autodiff.MaxRelError(p.analytic, numeric, 1e-2); err > 0.05 {
					t.Fatalf("%s gradient mismatch for %s: max rel error %v", p.name, tc.name, err)
				}
			}
		})
	}
}

// TestConvStudentBlockGradient runs the same check through a whole student
// block (BN → 3×3 s2 → 3×1 → 1×3 → 1×1 + projected skip), covering the
// composite the hot path actually executes.
func TestConvStudentBlockGradient(t *testing.T) { checkConvStudentBlockGradient(t, nil) }

// checkConvStudentBlockGradient is TestConvStudentBlockGradient on bk.
func checkConvStudentBlockGradient(t *testing.T, bk tensor.Backend) {
	rng := rand.New(rand.NewSource(77))
	ps := NewParamSet()
	blk := NewStudentBlock(ps, "b", 2, 3, 2, rng)
	x := randUnit(rng, 2, 8, 8)
	mix := randUnit(rng, 3, 4, 4)

	// Training-mode BN mutates running statistics on every forward, which
	// would drift the finite-difference loss; pin them by restoring the
	// snapshot before every evaluation. The perturbed weight itself is
	// never restored here (only .rmean/.rvar).
	statSnap := map[string]*tensor.Tensor{}
	for _, p := range ps.All() {
		if IsBNStat(p.Name) {
			statSnap[p.Name] = p.Value.Clone()
		}
	}
	restoreStats := func() {
		for name, v := range statSnap {
			ps.Get(name).Value.CopyFrom(v)
		}
	}

	build := func() float64 {
		restoreStats()
		fc := gradCtx(bk)
		out := blk.Forward(fc, fc.Tape.Constant(x))
		return dotVal(out.Value, mix)
	}

	fc := gradCtx(bk)
	for _, p := range ps.All() {
		p.Frozen = false
	}
	restoreStats()
	out := blk.Forward(fc, fc.Tape.Constant(x))
	fc.Tape.Backward(out, mix)

	// The composite loss crosses ReLU kinks, so individual finite-difference
	// entries can be arbitrarily wrong near a kink; compare gradient
	// direction and magnitude instead of worst-case entries.
	for _, name := range []string{"b.c33.w", "b.c31.w", "b.c13.w", "b.c11.w", "b.proj.w", "b.c11.b"} {
		v := fc.Vars[name]
		if v == nil || v.Grad == nil {
			t.Fatalf("no gradient for %s", name)
		}
		p := ps.Get(name)
		numeric := autodiff.NumericGrad(p.Value, build, 2e-3)
		cos, ratio := gradAgreement(v.Grad, numeric)
		if cos < 0.98 || ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("%s: analytic vs numeric gradient disagree: cos %v, norm ratio %v", name, cos, ratio)
		}
	}
}

// gradAgreement returns the cosine similarity and norm ratio of two
// gradient tensors.
func gradAgreement(a, b *tensor.Tensor) (cos, ratio float64) {
	dot := dotVal(a, b)
	na, nb := a.L2Norm(), b.L2Norm()
	if na == 0 || nb == 0 {
		return 0, 0
	}
	return dot / (na * nb), nb / na
}

func randUnit(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.Float64()*2 - 1)
	}
	return t
}

func dotVal(a, b *tensor.Tensor) float64 {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("dotVal shape mismatch %v vs %v", a.Shape(), b.Shape()))
	}
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}
