// Package tensor provides dense float32 tensors and the numerical kernels
// (matmul, im2col convolution, upsampling) that the rest of the
// reproduction builds on. All hot loops operate on flat slices and run on
// the calling goroutine: a session is the unit of parallelism, a kernel is
// not.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 tensor. The zero value is not usable;
// construct with New, Full or FromSlice.
type Tensor struct {
	Data  []float32
	shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Data: make([]float32, NumElems(shape)), shape: append([]int(nil), shape...)}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elems)",
			len(data), shape, NumElems(shape)))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// NumElems returns the product of the dimensions in shape.
// The panic message deliberately avoids formatting the shape slice itself:
// referencing it from fmt would force every variadic shape argument on the
// hot lease path onto the heap.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape", d))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t's data with a new shape. The element count
// must be unchanged; the data slice is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if NumElems(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.Offset(idx...)] }

// Set assigns v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.Offset(idx...)] = v }

// Offset converts a multi-index to the flat offset into Data.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// CopyFrom copies u's data into t. Shapes must match.
func (t *Tensor) CopyFrom(u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, u.shape))
	}
	copy(t.Data, u.Data)
}

// String renders a short description (shape plus a data prefix).
func (t *Tensor) String() string {
	n := min(len(t.Data), 8)
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}

// Sum returns the sum of all elements (in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// AllFinite reports whether every element is finite (no NaN or Inf).
func (t *Tensor) AllFinite() bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// ArgmaxChannel computes, for a CHW tensor, the channel index with the
// largest value at every spatial position, writing into out (len H*W).
// It returns out, allocating when out is nil or wrongly sized.
func (t *Tensor) ArgmaxChannel(out []int32) []int32 {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("tensor: ArgmaxChannel requires CHW tensor, got shape %v", t.shape))
	}
	c, h, w := t.shape[0], t.shape[1], t.shape[2]
	hw := h * w
	if len(out) != hw {
		out = make([]int32, hw)
	}
	for p := 0; p < hw; p++ {
		best := t.Data[p]
		bi := int32(0)
		for ch := 1; ch < c; ch++ {
			if v := t.Data[ch*hw+p]; v > best {
				best = v
				bi = int32(ch)
			}
		}
		out[p] = bi
	}
	return out
}
