package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpIntoMatchesMathExp pins ExpInto to math.Exp bitwise, on the
// selected kernels and on the portable ones: over 1M inputs spread across
// [-800, 800] (both sides of the kernel's fast range), random bit patterns,
// the special values and the range edges, at lengths that leave every
// len%4 tail, in place and out of place.
func TestExpIntoMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(7001))
	var in []float64
	for i := 0; i < 1<<20; i++ {
		in = append(in, rng.Float64()*1600-800)
	}
	for i := 0; i < 1<<14; i++ {
		in = append(in, math.Float64frombits(rng.Uint64()))
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -1e-300}
	for _, e := range []float64{-708, 709, -745, 709.78} {
		for _, d := range []float64{-1e-9, 0, 1e-9} {
			specials = append(specials, e+d, math.Nextafter(e+d, math.Inf(-1)), math.Nextafter(e+d, math.Inf(1)))
		}
	}
	// Each special next to in-range inputs, so every lane position of a
	// four-lane block sees one.
	for i := 0; i < 4*len(specials); i++ {
		in = append(in, rng.NormFloat64(), specials[i%len(specials)], rng.NormFloat64())
	}
	run := func(t *testing.T) {
		for _, n := range []int{len(in), len(in) - 1, len(in) - 2, len(in) - 3, 0, 1, 2, 3, 5} {
			src := in[len(in)-n:]
			got := make([]float64, n)
			ExpInto(got, src)
			inplace := append([]float64(nil), src...)
			ExpInto(inplace, inplace)
			for i, x := range src {
				want := math.Float64bits(math.Exp(x))
				if math.Float64bits(got[i]) != want || math.Float64bits(inplace[i]) != want {
					t.Fatalf("n=%d: exp(%v) (bits %#x) = %v / in place %v, math.Exp %v",
						n, x, math.Float64bits(x), got[i], inplace[i], math.Exp(x))
				}
			}
		}
	}
	t.Run(VecKernelISA(), run)
	if VecKernelISA() != "portable" {
		saved := expf
		expf = expGo
		defer func() { expf = saved }()
		t.Run("portable", run)
	}
}

// BenchmarkExpInto times one softmax row's worth of exponentials (6144
// inputs in the loss's shifted range, x <= 0).
func BenchmarkExpInto(b *testing.B) {
	rng := rand.New(rand.NewSource(7003))
	src := make([]float64, 6144)
	for i := range src {
		src[i] = -rng.ExpFloat64() * 8
	}
	dst := make([]float64, len(src))
	for i := 0; i < b.N; i++ {
		ExpInto(dst, src)
	}
}
