package tensor

// The scalar oracle's GEMM, gemmAxpy: saxpy rows with cache blocking along
// the reduction (k) dimension, for the NN (a×b) and TN (aᵀ×b) forms that
// Reference's convolution backward runs (backend_ref.go). The tests hold
// vec's dense products (ops.go) to it and to its NT counterpart gemmDot
// (gemm_test.go).
//
// Bit-consistency invariant: for every output element, partial products are
// accumulated in ascending-p order into a single float32 accumulator, with
// the same zero-skip convention as the pre-blocking kernels. Blocking only
// reorders *which element* is updated next, never the accumulation order
// within an element, so results are bitwise identical to the naive
// triple-loop for any block size (gemm_test.go checks this against an
// unblocked reference on randomized shapes).
const (
	// gemmKC bounds the reduction-panel height: kc rows of b (kc*n floats)
	// are streamed repeatedly while they are hot in cache instead of
	// re-reading all k rows per output row.
	gemmKC = 256
	// gemmJB bounds the b-row tile of the NT (dot) kernels: jb rows of b
	// (jb*k floats) are reused across every output row.
	gemmJB = 64
)

// saxpy computes dst[j] += a*x[j]. Single accumulator per element, ascending
// j; the compiler keeps this free of bounds checks via the len hint.
func saxpy(dst []float32, a float32, x []float32) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] += a * v
	}
}

// sdot returns Σ a[p]*b[p] accumulated in ascending-p order.
func sdot(a, b []float32) float32 {
	b = b[:len(a)]
	var s float32
	for p, v := range a {
		s += v * b[p]
	}
	return s
}

// gemmAxpy computes dst[m,n] (+)= opA(a)×b, where opA is selected by the
// row/column strides of a: (ars, acs) = (k, 1) reads a as [m,k] (NN form),
// (1, m) reads a as [k,m] and multiplies by its transpose (TN form). b is
// [k,n] row-major. Zero a-elements are skipped, matching the historical
// kernels (im2col matrices are zero-heavy at the padding border).
func gemmAxpy(cd, ad, bd []float32, m, n, k, ars, acs int, accumulate bool) {
	if !accumulate && k == 0 {
		// The kb loop (which clears each row at its first panel) never
		// runs for an empty reduction, but dst = a×b is still all zeros.
		clear(cd[:m*n])
		return
	}
	for kb := 0; kb < k; kb += gemmKC {
		ke := kb + gemmKC
		if ke > k {
			ke = k
		}
		for i := 0; i < m; i++ {
			crow := cd[i*n : (i+1)*n]
			if kb == 0 && !accumulate {
				clear(crow)
			}
			for p := kb; p < ke; p++ {
				av := ad[i*ars+p*acs]
				if av == 0 {
					continue
				}
				saxpy(crow, av, bd[p*n:(p+1)*n])
			}
		}
	}
}
