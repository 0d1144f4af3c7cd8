package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func TestAddSubMul(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	diff := New(3)
	if SubInto(diff, b, a); diff.Data[0] != 3 || diff.Data[2] != 3 {
		t.Fatalf("SubInto = %v", diff.Data)
	}
	if got := Mul(a, b).Data; got[1] != 10 {
		t.Fatalf("Mul = %v", got)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Add mismatch")
	Add(New(2), New(3))
}

func TestScaleAxpy(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	if got := Scale(a, 3).Data; got[1] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	dst := FromSlice([]float32{1, 1}, 2)
	AxpyInto(dst, 2, a)
	if dst.Data[1] != 5 {
		t.Fatalf("Axpy = %v", dst.Data)
	}
}

func TestReLUAndGrad(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2}, 3)
	y := New(3)
	ReLUInto(y, x)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("ReLU = %v", y.Data)
	}
	g := Full(1, 3)
	ReLUGradInto(g, x, g)
	if g.Data[0] != 0 || g.Data[2] != 1 {
		t.Fatalf("ReLUGrad = %v", g.Data)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 3, 3)
	id := New(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id)
	for i := range a.Data {
		if math.Abs(float64(c.Data[i]-a.Data[i])) > 1e-6 {
			t.Fatalf("A×I ≠ A at %d", i)
		}
	}
}

func TestMatMulInnerDimMismatchPanics(t *testing.T) {
	defer expectPanic(t, "MatMul mismatch")
	MatMul(New(2, 3), New(2, 3))
}

// MatMulATBInto(a,b) must equal aᵀ×b and MatMulABTInto(a,b) a×bᵀ, each
// against the naive triple loop over the transposed operand.
func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 4, 5)
	b := randTensor(rng, 4, 6)
	got := New(5, 6)
	MatMulATBInto(got, a, b, false)
	assertClose(t, got, naiveMatMulATB(a, b), 1e-5)

	c := randTensor(rng, 5, 4)
	d := randTensor(rng, 6, 4)
	got2 := New(5, 6)
	MatMulABTInto(got2, c, d)
	assertClose(t, got2, naiveMatMulABT(c, d), 1e-5)
}

func TestMatMulIntoAccumulate(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	dst := Full(1, 2, 2)
	MatMulInto(dst, a, b, true)
	if dst.Data[0] != 2 || dst.Data[3] != 5 {
		t.Fatalf("accumulate failed: %v", dst.Data)
	}
}

// Property: matmul distributes over addition, (A+B)×C = A×C + B×C.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := randTensor(rng, m, k)
		b := randTensor(rng, m, k)
		c := randTensor(rng, k, n)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return maxAbsDiff(lhs, rhs) < 1e-4
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: Add commutes.
func TestQuickAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := randTensor(rng, n)
		b := randTensor(rng, n)
		return maxAbsDiff(Add(a, b), Add(b, a)) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func maxAbsDiff(a, b *Tensor) float64 {
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > worst {
			worst = d
		}
	}
	return worst
}

func assertClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape mismatch: %v vs %v", got.Shape(), want.Shape())
	}
	if d := maxAbsDiff(got, want); d > tol {
		t.Fatalf("max abs diff %g > tol %g", d, tol)
	}
}
