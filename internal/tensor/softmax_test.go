package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestSoftmaxXentKernelsMatchPortable pins SoftmaxXentInto on the selected
// kernels to the portable Go kernels bitwise — gradient and label
// probabilities — over logits salted with NaN, ±Inf, ±0 and exact ties
// (where only `x > max` decides which value is kept), channel gaps past
// math.Exp's fast range, ragged chunk tails, and three weightings: none,
// the loss's 1/5, and one salted with NaN, ±Inf, ±0 and tiny weights. A NaN
// matches any NaN: which of two NaN operands a commutative Go operation
// propagates depends on the operand order the compiler picks.
//
// On either kernel set it also pins the flush against the scalar per-pixel
// form u = float32(w·g)·inv: where u is subnormal the gradient is the zero
// of u's sign, everywhere else it is u — ±0, ±Inf and NaN included — and no
// entry is subnormal. The ×400 logits and the tiny weights produce such u.
func TestSoftmaxXentKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(7013))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 1.5}
	wspecials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 1e-38, -3e-39, 1e-45, 2e-38}
	const inv = 0.37
	var flushed, zeros, infs, nans int
	for _, sh := range []struct{ c, n int }{{9, 6144}, {9, 2257}, {2, 7}, {1, 5}, {5, 3}, {12, 1001}} {
		for _, scale := range []float64{4, 400} {
			logits := make([]float32, sh.c*sh.n)
			for i := range logits {
				logits[i] = float32(rng.NormFloat64() * scale)
				if rng.Intn(50) == 0 {
					logits[i] = specials[rng.Intn(len(specials))]
				}
			}
			label := make([]int32, sh.n)
			weights := make([]float32, sh.n)
			salted := make([]float32, sh.n)
			for j := range label {
				label[j] = int32(rng.Intn(sh.c))
				weights[j] = float32(1 + 4*rng.Intn(2))
				salted[j] = weights[j]
				if rng.Intn(4) == 0 {
					salted[j] = wspecials[rng.Intn(len(wspecials))]
				}
			}
			for wi, w := range [][]float32{nil, weights, salted} {
				scratch := make([]float64, 1000)
				want, got := make([]float32, len(logits)), make([]float32, len(logits))
				wantQ, gotQ := make([]float64, sh.n), make([]float64, sh.n)
				SoftmaxXentInto(got, gotQ, logits, sh.n, sh.c, label, w, inv, scratch)
				ef, mf, xf := expf, maxShiftf, xentGradf
				expf, maxShiftf, xentGradf = expGo, maxShift, xentGrad
				SoftmaxXentInto(want, wantQ, logits, sh.n, sh.c, label, w, inv, scratch)
				expf, maxShiftf, xentGradf = ef, mf, xf
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
						t.Fatalf("c=%d n=%d scale=%v weighting %d: grad[%d] = %v, portable %v", sh.c, sh.n, scale, wi, i, got[i], want[i])
					}
				}
				for j := range wantQ {
					if math.Float64bits(gotQ[j]) != math.Float64bits(wantQ[j]) && !(math.IsNaN(gotQ[j]) && math.IsNaN(wantQ[j])) {
						t.Fatalf("c=%d n=%d scale=%v weighting %d: q[%d] = %v, portable %v", sh.c, sh.n, scale, wi, j, gotQ[j], wantQ[j])
					}
				}
				u := unflushedXentGrad(logits, sh.n, sh.c, label, w, inv)
				for i, v := range got {
					ub := math.Float32bits(u[i])
					wantBits := ub
					switch {
					case isSubnormal32(u[i]):
						wantBits = ub & 0x80000000
						flushed++
					case u[i] == 0:
						zeros++
					case math.IsInf(float64(u[i]), 0):
						infs++
					case u[i] != u[i]:
						nans++
					}
					if isSubnormal32(v) {
						t.Fatalf("c=%d n=%d scale=%v weighting %d: grad[%d] = %v is subnormal", sh.c, sh.n, scale, wi, i, v)
					}
					if math.Float32bits(v) != wantBits && !(v != v && u[i] != u[i]) {
						t.Fatalf("c=%d n=%d scale=%v weighting %d: grad[%d] = %v (%#08x), scalar form %v flushes to %#08x",
							sh.c, sh.n, scale, wi, i, v, math.Float32bits(v), u[i], wantBits)
					}
				}
			}
		}
	}
	if flushed == 0 || zeros == 0 || infs == 0 || nans == 0 {
		t.Fatalf("inputs reach %d subnormal, %d zero, %d infinite and %d NaN scalar gradients; each kind needs one", flushed, zeros, infs, nans)
	}
}

// isSubnormal32 reports whether v is a nonzero float32 below 2^-126 in
// magnitude.
func isSubnormal32(v float32) bool {
	b := math.Float32bits(v)
	return b&0x7f800000 == 0 && b&0x7fffffff != 0
}

// unflushedXentGrad is the scalar per-pixel form of SoftmaxXentInto's
// gradient before its flush: the max by `x > m` from channel 0, math.Exp
// of each float64 shift, the ascending sum, p = e/z, 1 off at the label,
// then float32(w·g)·inv.
func unflushedXentGrad(logits []float32, n, c int, label []int32, weights []float32, inv float32) []float32 {
	grad := make([]float32, c*n)
	e := make([]float64, c)
	for j := 0; j < n; j++ {
		m := float64(logits[j])
		for ch := 1; ch < c; ch++ {
			if x := float64(logits[ch*n+j]); x > m {
				m = x
			}
		}
		z := 0.0
		for ch := range e {
			e[ch] = math.Exp(float64(logits[ch*n+j]) - m)
			z += e[ch]
		}
		wt := 1.0
		if weights != nil {
			wt = float64(weights[j])
		}
		for ch, v := range e {
			g := v / z
			if int(label[j]) == ch {
				g -= 1
			}
			grad[ch*n+j] = float32(wt*g) * inv
		}
	}
	return grad
}
