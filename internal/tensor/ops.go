package tensor

import (
	"fmt"
)

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	AddInto(out, a, b)
	return out
}

// AddInto writes a + b into dst (which may alias a or b).
func AddInto(dst, a, b *Tensor) {
	checkSame("AddInto", a, b)
	checkSame("AddInto dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto writes a - b into dst (which may alias a or b).
func SubInto(dst, a, b *Tensor) {
	checkSame("SubInto", a, b)
	checkSame("SubInto dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Mul returns the elementwise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	MulInto(out, a, b)
	return out
}

// MulInto writes a * b elementwise into dst (which may alias a or b).
func MulInto(dst, a, b *Tensor) {
	checkSame("MulInto", a, b)
	checkSame("MulInto dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Scale returns a * s elementwise.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	ScaleInto(out, a, s)
	return out
}

// ScaleInto writes a * s into dst (which may alias a).
func ScaleInto(dst, a *Tensor, s float32) {
	checkSame("ScaleInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * s
	}
}

// AxpyInto computes dst += alpha * x, the BLAS axpy primitive.
func AxpyInto(dst *Tensor, alpha float32, x *Tensor) {
	checkSame("AxpyInto", dst, x)
	for i := range dst.Data {
		dst.Data[i] += alpha * x.Data[i]
	}
}

// ReLUInto writes max(a, 0) into dst (which may alias a): a copy, then the
// one in-place ReLU kernel (ReLUFlat), so NaN passes through.
func ReLUInto(dst, a *Tensor) {
	checkSame("ReLUInto", dst, a)
	copy(dst.Data, a.Data)
	ReLUFlat(dst.Data)
}

// ReLUGradInto writes grad masked by the positive entries of the forward
// input x into dst (which may alias grad): dst[i] = grad[i] if x[i] > 0 else
// +0, on the selected kernel (an AVX2 compare-and-mask on capable amd64,
// exact for NaN, ±0 and ±Inf inputs too).
func ReLUGradInto(dst, x, grad *Tensor) {
	checkSame("ReLUGradInto", x, grad)
	checkSame("ReLUGradInto dst", dst, x)
	reluGradf(dst.Data, x.Data, grad.Data)
}

// MatMul multiplies a [m,k] by b [k,n] into a new [m,n] tensor via the
// packed GEMM.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 tensors, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	packedMatMul(out.Data, a.Data, b.Data, m, n, k, k, 1, false)
	return out
}

// The three dense products run on the convolutions' kernels: a is packed
// into panels (packWeightsInto) and b is read through a dense row table
// (newDenseOperand), so the NN and TN forms are the forward's gemmPacked
// and the NT form is the weight gradient's vecGemmDotInd. Their scratch is
// a workspace lease over SharedPool, returned before they return.

// MatMulInto computes dst = a×b for a [m,k], b [k,n] → [m,n], or dst +=
// a×b when accumulate is true.
func MatMulInto(dst, a, b *Tensor, accumulate bool) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst %v = %v × %v", dst.shape, a.shape, b.shape))
	}
	packedMatMul(dst.Data, a.Data, b.Data, m, n, k, k, 1, accumulate)
}

// MatMulATBInto computes dst = aᵀ×b for a [k,m], b [k,n] → [m,n], or
// dst += aᵀ×b when accumulate is true.
func MatMulATBInto(dst, a, b *Tensor, accumulate bool) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulATBInto shape mismatch dst %v = %vᵀ × %v", dst.shape, a.shape, b.shape))
	}
	packedMatMul(dst.Data, a.Data, b.Data, m, n, k, 1, m, accumulate)
}

// packedMatMul is cd [m,n] (+)= A×b, A's element (i, p) at ad[i*rs+p*cs],
// on gemmPacked.
func packedMatMul(cd, ad, bd []float32, m, n, k, rs, cs int, accumulate bool) {
	ws := NewWorkspace()
	panels := ws.GetDirty(packedSize(m, k))
	packWeightsInto(panels.Data, ad, m, k, rs, cs)
	p := newDenseOperand(ws, bd, k, n)
	gemmPacked(cd, panels.Data, p, m, k, accumulate)
	ws.Reset()
}

// MatMulABTInto computes dst = a×bᵀ for a [m,k], b [n,k] → [m,n].
func MatMulABTInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulABTInto shape mismatch dst %v = %v × %vᵀ", dst.shape, a.shape, b.shape))
	}
	if k == 0 {
		clear(dst.Data) // an empty reduction; b has no floats to read
		return
	}
	ws := NewWorkspace()
	p := newDenseOperand(ws, b.Data, n, k)
	tail := ws.GetDirty(n % 4 * k)
	vecGemmDotInd(dst.Data, a.Data, p, m, n, tail.Data)
	ws.Reset()
}

func checkSame(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
