package tensor

import "fmt"

// ConvSpec describes a 2-D convolution: kernel height/width, stride and
// symmetric zero padding. The student blocks of the paper use 3×3, 3×1,
// 1×3 and 1×1 kernels (Fig. 3a), all expressible here.
type ConvSpec struct {
	KH, KW int // kernel height, width
	SH, SW int // stride
	PH, PW int // padding
}

// Spec constructs a ConvSpec with stride 1 and "same" padding for odd
// kernels (pad = (k-1)/2).
func Spec(kh, kw int) ConvSpec {
	return ConvSpec{KH: kh, KW: kw, SH: 1, SW: 1, PH: (kh - 1) / 2, PW: (kw - 1) / 2}
}

// WithStride returns a copy of s with both strides set to st.
func (s ConvSpec) WithStride(st int) ConvSpec {
	s.SH, s.SW = st, st
	return s
}

// OutSize returns the output spatial size for an input of h×w.
func (s ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*s.PH-s.KH)/s.SH + 1
	ow = (w+2*s.PW-s.KW)/s.SW + 1
	return
}

// Im2col lowers a CHW input into a matrix of shape [OH*OW, C*KH*KW] so the
// convolution becomes one matmul against the [C*KH*KW, OC] weight matrix.
// dst may be nil; the (possibly re-used) matrix is returned. Every element
// of dst is written — padding positions are zeroed explicitly in the lowering
// loop rather than by clearing the whole buffer up front — so a reused or
// dirty destination yields output identical to a fresh one.
func Im2col(x *Tensor, s ConvSpec, dst *Tensor) *Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2col requires CHW input, got %v", x.Shape()))
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := s.OutSize(h, w)
	cols := c * s.KH * s.KW
	rows := oh * ow
	if dst == nil || dst.Len() != rows*cols {
		dst = &Tensor{Data: make([]float32, rows*cols), shape: []int{rows, cols}}
	} else if len(dst.shape) != 2 || dst.shape[0] != rows || dst.shape[1] != cols {
		dst = dst.Reshape(rows, cols)
	}
	dd := dst.Data
	for oy := 0; oy < oh; oy++ {
		im2colRow(dd, x, s, oy, ow, cols)
	}
	return dst
}

// im2colRow lowers one output row oy (all ox positions) into dd, writing
// every element of the affected dd region including zero padding.
func im2colRow(dd []float32, x *Tensor, s ConvSpec, oy, ow, cols int) {
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	xd := x.Data
	iy0 := oy*s.SH - s.PH
	for ox := 0; ox < ow; ox++ {
		ix0 := ox*s.SW - s.PW
		row := (oy*ow + ox) * cols
		for ch := 0; ch < c; ch++ {
			base := ch * h * w
			col := row + ch*s.KH*s.KW
			for ky := 0; ky < s.KH; ky++ {
				iy := iy0 + ky
				d := col + ky*s.KW
				if iy < 0 || iy >= h {
					clear(dd[d : d+s.KW])
					continue
				}
				src := base + iy*w
				for kx := 0; kx < s.KW; kx++ {
					ix := ix0 + kx
					if ix < 0 || ix >= w {
						dd[d+kx] = 0
					} else {
						dd[d+kx] = xd[src+ix]
					}
				}
			}
		}
	}
}

// Col2imInto scatters a [OH*OW, C*KH*KW] matrix cols into dst (shape
// [c,h,w]), accumulating overlapping contributions into dst's existing
// contents — dst must be zero-filled for a plain adjoint of Im2col, which is
// what conv backward's input gradient is.
func Col2imInto(dst, cols *Tensor, s ConvSpec) {
	c, h, w := dst.Dim(0), dst.Dim(1), dst.Dim(2)
	oh, ow := s.OutSize(h, w)
	ncol := c * s.KH * s.KW
	if cols.Len() != oh*ow*ncol {
		panic(fmt.Sprintf("tensor: Col2im size mismatch: %d elems for out %dx%d, cols %d", cols.Len(), oh, ow, ncol))
	}
	cd, od := cols.Data, dst.Data
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s.SH - s.PH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*s.SW - s.PW
				row := (oy*ow+ox)*ncol + ch*s.KH*s.KW
				for ky := 0; ky < s.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					dst := base + iy*w
					src := row + ky*s.KW
					for kx := 0; kx < s.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						od[dst+ix] += cd[src+kx]
					}
				}
			}
		}
	}
}

// Conv2D applies weights w of shape [OC, C, KH, KW] and bias b (len OC, may
// be nil) to a CHW input, returning [OC, OH, OW].
func Conv2D(x, w, b *Tensor, s ConvSpec) *Tensor {
	return Conv2DWS(nil, x, w, b, s)
}

// Conv2DWS is Conv2D with every buffer (scratch and result) leased from ws;
// a nil ws falls back to plain allocation. Shapes are validated here, then
// the forward is dispatched to the workspace's compute backend (vec for nil
// or unconfigured workspaces). vec runs one packed GEMM per sample, its B
// read through a row-offset table in the layout the shape picks (the input
// in place, padded planes or shifted copies, indirect.go); every layout
// gives the lowering's bits.
func Conv2DWS(ws *Workspace, x, w, b *Tensor, s ConvSpec) *Tensor {
	oc := w.Dim(0)
	c := x.Dim(0)
	if w.Dim(1) != c || w.Dim(2) != s.KH || w.Dim(3) != s.KW {
		panic(fmt.Sprintf("tensor: Conv2D weight %v incompatible with input %v spec %+v", w.Shape(), x.Shape(), s))
	}
	if b != nil && b.Len() != oc {
		panic(fmt.Sprintf("tensor: Conv2D bias len %d != out channels %d", b.Len(), oc))
	}
	return ws.Backend().Conv2DWS(ws, x, w, b, s)
}

// Conv2DBackwardWS computes gradients of a Conv2D call with scratch and
// results leased from ws (nil ws allocates), on the workspace's compute
// backend. gy is the output gradient [OC, OH, OW]. It returns (dx, dw, db);
// dx is nil when needInput is false (the partial-distillation path stops
// input gradients at the frozen boundary, §4.2 of the paper). The returned
// gradients are workspace leases: they stay valid until the workspace
// resets, which in the autodiff tape's usage outlives the optimizer step
// that consumes them.
func Conv2DBackwardWS(ws *Workspace, x, w, gy *Tensor, s ConvSpec, needInput bool) (dx, dw, db *Tensor) {
	return ws.Backend().Conv2DBackwardWS(ws, x, w, gy, s, needInput)
}

// UpsampleNearest2xWS doubles the spatial size of a CHW tensor by
// nearest-neighbour replication, the result leased from ws.
func UpsampleNearest2xWS(ws *Workspace, x *Tensor) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := ws.GetDirty(c, h*2, w*2)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			src := x.Data[ch*h*w+y*w : ch*h*w+(y+1)*w]
			d0 := out.Data[ch*4*h*w+(2*y)*2*w:]
			d1 := out.Data[ch*4*h*w+(2*y+1)*2*w:]
			for xx, v := range src {
				d0[2*xx], d0[2*xx+1] = v, v
				d1[2*xx], d1[2*xx+1] = v, v
			}
		}
	}
	return out
}

// UpsampleNearest2xBackwardWS sums each 2×2 output-gradient block back into
// the corresponding input cell, the result leased from ws.
func UpsampleNearest2xBackwardWS(ws *Workspace, gy *Tensor) *Tensor {
	c, h2, w2 := gy.Dim(0), gy.Dim(1), gy.Dim(2)
	h, w := h2/2, w2/2
	out := ws.GetDirty(c, h, w)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			g0 := gy.Data[ch*h2*w2+(2*y)*w2:]
			g1 := gy.Data[ch*h2*w2+(2*y+1)*w2:]
			dst := out.Data[ch*h*w+y*w : ch*h*w+(y+1)*w]
			for xx := range dst {
				dst[xx] = g0[2*xx] + g0[2*xx+1] + g1[2*xx] + g1[2*xx+1]
			}
		}
	}
	return out
}

// Concat stacks CHW tensors along the channel axis. All inputs must share
// spatial dimensions.
func Concat(xs ...*Tensor) *Tensor { return ConcatWS(nil, xs...) }

// ConcatWS is Concat with the result leased from ws.
func ConcatWS(ws *Workspace, xs ...*Tensor) *Tensor {
	if len(xs) == 0 {
		panic("tensor: Concat of zero tensors")
	}
	h, w := xs[0].Dim(1), xs[0].Dim(2)
	total := 0
	for _, x := range xs {
		if x.Dim(1) != h || x.Dim(2) != w {
			panic(fmt.Sprintf("tensor: Concat spatial mismatch %v vs %dx%d", x.Shape(), h, w))
		}
		total += x.Dim(0)
	}
	out := ws.GetDirty(total, h, w)
	off := 0
	for _, x := range xs {
		copy(out.Data[off:], x.Data)
		off += x.Len()
	}
	return out
}

// SplitChannelsWS splits the gradient of a Concat back into per-input pieces
// with the given channel counts, each piece leased from ws.
func SplitChannelsWS(ws *Workspace, g *Tensor, chans []int) []*Tensor {
	h, w := g.Dim(1), g.Dim(2)
	outs := make([]*Tensor, len(chans))
	off := 0
	for i, c := range chans {
		t := ws.GetDirty(c, h, w)
		copy(t.Data, g.Data[off:off+t.Len()])
		outs[i] = t
		off += t.Len()
	}
	if off != g.Len() {
		panic(fmt.Sprintf("tensor: SplitChannels consumed %d of %d elems", off, g.Len()))
	}
	return outs
}
