package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// gemmDot is the scalar oracle's NT form: dst[m,n] = a×bᵀ for a [m,k],
// b [n,k], tiling the rows of b so each jb-row panel stays cache-resident
// across every output row. MatMulABTInto is held to it (backend_test.go).
func gemmDot(cd, ad, bd []float32, m, n, k int) {
	for jb := 0; jb < n; jb += gemmJB {
		je := jb + gemmJB
		if je > n {
			je = n
		}
		for i := 0; i < m; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			for j := jb; j < je; j++ {
				crow[j] = sdot(arow, bd[j*k:(j+1)*k])
			}
		}
	}
}

// Naive reference kernels: plain triple loops with the same per-element
// conventions as the blocked kernels (ascending-p accumulation into a single
// float32 accumulator, zero-skip on the a operand for the axpy forms). The
// blocked implementations must match them bit for bit on every shape.

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

func naiveMatMulATB(a, b *Tensor) *Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

func naiveMatMulABT(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// randSparseTensor mixes exact zeros into the data so the zero-skip path of
// the blocked kernels is exercised.
func randSparseTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := randTensor(rng, shape...)
	for i := range t.Data {
		if rng.Intn(4) == 0 {
			t.Data[i] = 0
		}
	}
	return t
}

func equalBits(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v != %v", name, got.Shape(), want.Shape())
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: blocked kernel diverges from naive at %d: %v vs %v",
				name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestBlockedGEMMMatchesNaive checks bit-consistency of the scalar oracle's
// three blocked forms (gemmAxpy's NN and TN, gemmDot) against the naive
// references on randomized shapes, including shapes larger than the
// blocking factors so multiple k-panels and j-tiles are exercised.
// Bit-consistency is a contract of the oracle's kernels specifically (the
// package's dense products are held to the ulp-scaled parity bound in
// backend_test.go instead), so this test and the next run on them.
func TestBlockedGEMMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	shapes := [][3]int{
		{1, 1, 1},
		{3, 5, 2},
		{17, 33, 9},
		{64, gemmKC + 7, gemmJB + 5}, // spills both blocking factors
		{130, 300, 70},
	}
	for round := 0; round < 10; round++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(90), 1 + rng.Intn(400), 1 + rng.Intn(150)})
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSparseTensor(rng, m, k)
		b := randSparseTensor(rng, k, n)
		at := randSparseTensor(rng, k, m)
		bt := randSparseTensor(rng, n, k)
		ab, atb, abt := New(m, n), New(m, n), New(m, n)
		gemmAxpy(ab.Data, a.Data, b.Data, m, n, k, k, 1, false)
		gemmAxpy(atb.Data, at.Data, b.Data, m, n, k, 1, m, false)
		gemmDot(abt.Data, a.Data, bt.Data, m, n, k)
		equalBits(t, "MatMul", ab, naiveMatMul(a, b))
		equalBits(t, "MatMulATB", atb, naiveMatMulATB(at, b))
		equalBits(t, "MatMulABT", abt, naiveMatMulABT(a, bt))
	}
}

// Property form: accumulate mode must equal compute-then-add.
func TestBlockedGEMMAccumulate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(24), 1+rng.Intn(48), 1+rng.Intn(24)
		a := randSparseTensor(rng, m, k)
		b := randSparseTensor(rng, k, n)
		base := randTensor(rng, m, n)

		acc := base.Clone()
		gemmAxpy(acc.Data, a.Data, b.Data, m, n, k, k, 1, true)

		// Naive accumulation into the same starting values, same per-element
		// ascending-p order.
		want := base.Clone()
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				av := a.Data[i*k+p]
				if av == 0 {
					continue
				}
				for j := 0; j < n; j++ {
					want.Data[i*n+j] += av * b.Data[p*n+j]
				}
			}
		}
		for i := range acc.Data {
			if acc.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(92))}); err != nil {
		t.Fatal(err)
	}
}

// Regression: an empty reduction (k == 0) must still clear a reused
// destination in non-accumulate mode — the clear lives in the k-panel loop,
// which never runs when k is zero — and must not read b's (empty) rows.
func TestBlockedGEMMZeroInnerDim(t *testing.T) {
	a := New(2, 0)
	b := New(0, 3)
	dst := Full(7, 2, 3)
	MatMulInto(dst, a, b, false)
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("dst[%d] = %v after k=0 matmul, want 0", i, v)
		}
	}
	at := New(0, 2)
	dst2 := Full(7, 2, 3)
	MatMulATBInto(dst2, at, b, false)
	for i, v := range dst2.Data {
		if v != 0 {
			t.Fatalf("ATB dst[%d] = %v after k=0 matmul, want 0", i, v)
		}
	}
	dst3 := Full(7, 2, 3)
	MatMulABTInto(dst3, a, New(3, 0))
	for i, v := range dst3.Data {
		if v != 0 {
			t.Fatalf("ABT dst[%d] = %v after k=0 matmul, want 0", i, v)
		}
	}
	// Accumulate mode must leave the destination untouched.
	acc := Full(7, 2, 3)
	MatMulInto(acc, a, b, true)
	for i, v := range acc.Data {
		if v != 7 {
			t.Fatalf("accumulate dst[%d] = %v after k=0 matmul, want 7", i, v)
		}
	}
}
