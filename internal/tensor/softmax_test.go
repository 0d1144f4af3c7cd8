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
// math.Exp's fast range, ragged chunk tails, and both weightings. A NaN
// matches any NaN: which of two NaN operands a commutative Go operation
// propagates depends on the operand order the compiler picks.
func TestSoftmaxXentKernelsMatchPortable(t *testing.T) {
	if VecKernelISA() == "portable" {
		t.Skip("the selected kernels are the portable ones")
	}
	rng := rand.New(rand.NewSource(7013))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 1.5}
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
			for j := range label {
				label[j] = int32(rng.Intn(sh.c))
				weights[j] = float32(1 + 4*rng.Intn(2))
			}
			for _, w := range [][]float32{nil, weights} {
				scratch := make([]float64, 1000)
				want, got := make([]float32, len(logits)), make([]float32, len(logits))
				wantQ, gotQ := make([]float64, sh.n), make([]float64, sh.n)
				SoftmaxXentInto(got, gotQ, logits, sh.n, sh.c, label, w, 0.37, scratch)
				ef, mf, xf := expf, maxShiftf, xentGradf
				expf, maxShiftf, xentGradf = expGo, maxShift, xentGrad
				SoftmaxXentInto(want, wantQ, logits, sh.n, sh.c, label, w, 0.37, scratch)
				expf, maxShiftf, xentGradf = ef, mf, xf
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
						t.Fatalf("c=%d n=%d scale=%v weighted=%v: grad[%d] = %v, portable %v", sh.c, sh.n, scale, w != nil, i, got[i], want[i])
					}
				}
				for j := range wantQ {
					if math.Float64bits(gotQ[j]) != math.Float64bits(wantQ[j]) && !(math.IsNaN(gotQ[j]) && math.IsNaN(wantQ[j])) {
						t.Fatalf("c=%d n=%d scale=%v weighted=%v: q[%d] = %v, portable %v", sh.c, sh.n, scale, w != nil, j, gotQ[j], wantQ[j])
					}
				}
			}
		}
	}
}
