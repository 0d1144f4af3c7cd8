package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file is the batched, gradient-free mirror of Student.Forward: one
// fused kernel per layer over a whole batch of frames instead of one tape
// pass per frame. Activations live in the channel-major CNHW layout
// ([C, N, H, W]; see internal/tensor/batch.go), which makes every layer
// between convolutions — BN, ReLU, residual add, channel concat, 2x
// upsample — a plain pass over contiguous channel rows, and lets the
// convolutions chain through tensor.Conv2DBatchCNHWWS with no inter-layer
// transposes.
//
// Numerics: every elementwise helper reproduces the corresponding autodiff
// tape op's inference-mode arithmetic expression (same operand order, same
// float32 evaluation), and on both backends a batched convolution
// accumulates each output element in the order the per-sample forward does
// (internal/tensor/batch.go), so InferBatch produces exactly the logits
// (and masks) of a per-frame Infer loop — the invariant
// TestInferBatchMatchesLoop and FuzzBatchParity enforce.

// batchCtx is the student's reusable batched-inference state: one private
// workspace for the whole batched pass plus the recycled mask buffers, so
// steady-state InferBatch calls allocate nothing once the pool and buffers
// are warm.
type batchCtx struct {
	ws    *tensor.Workspace
	masks [][]int32
	flat  []int32
}

// InferBatch runs one gradient-free forward pass over a batch of same-shape
// CHW images and returns one argmax mask (len H*W) per image.
//
// The returned masks live in buffers owned by the student and are only
// valid until the next InferBatch call; callers that keep them must copy
// (teacher.CNNTeacher does). Like Infer, InferBatch is not safe for
// concurrent use on one student. On vec the whole batch runs as one fused
// kernel per layer; reference runs per-sample kernels inside the same walk.
func (s *Student) InferBatch(imgs []*tensor.Tensor) [][]int32 {
	n := len(imgs)
	if n == 0 {
		return nil
	}
	for _, img := range imgs {
		CheckCHW(img, s.Config.InChannels)
	}
	if imgs[0].Dim(1)%8 != 0 || imgs[0].Dim(2)%8 != 0 {
		panic(fmt.Sprintf("nn: student input %v must have spatial dims divisible by 8", imgs[0].Shape()))
	}
	if s.batchCtx == nil {
		s.batchCtx = &batchCtx{ws: tensor.NewWorkspace().SetBackend(s.backend)}
	}
	bc := s.batchCtx
	bc.ws.Reset()
	logits := s.forwardBatch(bc.ws, imgs)
	return bc.argmax(logits)
}

// forwardBatch is Forward's graph with batched kernels, returning CNHW
// logits [NumClasses, N, H, W]. Intermediates are released eagerly so the
// pool working set stays close to the per-layer peak.
func (s *Student) forwardBatch(ws *tensor.Workspace, imgs []*tensor.Tensor) *tensor.Tensor {
	h1 := tensor.Conv2DBatchWS(ws, imgs, s.in1.Weight.Value, convBias(s.in1), s.in1.Spec)
	reluBatch(h1) // 1/2 res, Stem1 ch
	h2 := convBatch(ws, h1, s.in2)
	ws.Put(h1)
	reluBatch(h2)                    // 1/4 res, Stem2 ch
	f1 := s.sb1.forwardBatch(ws, h2) // 1/4 res, B1 ch  (skip → SB6)
	ws.Put(h2)
	f2 := s.sb2.forwardBatch(ws, f1) // 1/8 res, B2 ch  (skip → SB5)
	f3 := s.sb3.forwardBatch(ws, f2) // 1/8 res
	f4 := s.sb4.forwardBatch(ws, f3) // 1/8 res — frozen boundary
	ws.Put(f3)
	c5 := concatBatch(ws, f4, f2) // 1/8 res, B4+B2 ch
	ws.Put(f4)
	ws.Put(f2)
	f5 := s.sb5.forwardBatch(ws, c5) // 1/8 res, B5 ch
	ws.Put(c5)
	u5 := upsample2xBatch(ws, f5) // 1/4 res
	ws.Put(f5)
	c6 := concatBatch(ws, u5, f1) // 1/4 res, B5+B1 ch
	ws.Put(u5)
	ws.Put(f1)
	f6 := s.sb6.forwardBatch(ws, c6) // 1/4 res, B6 ch
	ws.Put(c6)
	u6 := upsample2xBatch(ws, f6) // 1/2 res
	ws.Put(f6)
	o := convBatch(ws, u6, s.out1)
	ws.Put(u6)
	reluBatch(o)
	o2 := convBatch(ws, o, s.out2)
	ws.Put(o)
	reluBatch(o2)
	u7 := upsample2xBatch(ws, o2) // full res
	ws.Put(o2)
	logits := convBatch(ws, u7, s.out3)
	ws.Put(u7)
	return logits
}

// forwardBatch runs the residual block on a CNHW activation (the batched
// mirror of StudentBlock.Forward). The caller still owns x.
func (b *StudentBlock) forwardBatch(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	h := bnInferBatch(ws, b.BN, x)
	h2 := convBatch(ws, h, b.C33)
	ws.Put(h)
	reluBatch(h2)
	h3 := convBatch(ws, h2, b.C31)
	ws.Put(h2)
	reluBatch(h3)
	h4 := convBatch(ws, h3, b.C13)
	ws.Put(h3)
	reluBatch(h4)
	h5 := convBatch(ws, h4, b.C11)
	ws.Put(h4)
	skip := x
	if b.Proj != nil {
		skip = convBatch(ws, x, b.Proj)
	}
	addBatch(h5, skip)
	if b.Proj != nil {
		ws.Put(skip)
	}
	reluBatch(h5)
	return h5
}

// convBias returns the layer's bias tensor or nil.
func convBias(l *Conv2D) *tensor.Tensor {
	if l.Bias == nil {
		return nil
	}
	return l.Bias.Value
}

// convBatch applies a conv layer to a CNHW activation.
func convBatch(ws *tensor.Workspace, x *tensor.Tensor, l *Conv2D) *tensor.Tensor {
	return tensor.Conv2DBatchCNHWWS(ws, x, l.Weight.Value, convBias(l), l.Spec)
}

// bnInferBatch is inference-mode batch normalisation on a CNHW activation:
// per channel, the same running-stat normalisation expression as the tape's
// BatchNorm (autodiff.go) applied to the channel's contiguous N*H*W row.
func bnInferBatch(ws *tensor.Workspace, bn *BatchNorm2D, x *tensor.Tensor) *tensor.Tensor {
	c, nb, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	nhw := nb * h * w
	out := ws.GetDirty(c, nb, h, w)
	gd, bd := bn.Gamma.Value.Data, bn.Beta.Value.Data
	rm, rv := bn.RunMean.Value.Data, bn.RunVar.Value.Data
	eps := bn.Eps
	for ch := 0; ch < c; ch++ {
		is := 1 / bnSqrt32(rv[ch]+eps)
		g, b := gd[ch], bd[ch]
		m := rm[ch]
		xs := x.Data[ch*nhw : (ch+1)*nhw]
		os := out.Data[ch*nhw : (ch+1)*nhw]
		for i, v := range xs {
			xh := (v - m) * is
			os[i] = g*xh + b
		}
	}
	return out
}

// bnSqrt32 matches the tape's sqrt32: 0 for non-positive inputs.
func bnSqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}

// reluBatch clamps negatives in place (same values as tensor.ReLUInto).
func reluBatch(t *tensor.Tensor) {
	tensor.ReLUFlat(t.Data)
}

// addBatch accumulates x into dst elementwise, evaluating dst[i] + x[i] in
// the tape Add's operand order (h + skip).
func addBatch(dst, x *tensor.Tensor) {
	xd := x.Data
	dd := dst.Data[:len(xd)]
	for i, v := range xd {
		dd[i] = dd[i] + v
	}
}

// concatBatch stacks two CNHW activations along the channel axis: both
// inputs are contiguous channel-major blocks, so this is two copies.
func concatBatch(ws *tensor.Workspace, a, b *tensor.Tensor) *tensor.Tensor {
	out := ws.GetDirty(a.Dim(0)+b.Dim(0), a.Dim(1), a.Dim(2), a.Dim(3))
	copy(out.Data, a.Data)
	copy(out.Data[a.Len():], b.Data)
	return out
}

// upsample2xBatch doubles the spatial size of a CNHW activation by
// nearest-neighbour replication, one contiguous (channel, sample) plane at
// a time — the batched mirror of tensor.UpsampleNearest2xWS.
func upsample2xBatch(ws *tensor.Workspace, x *tensor.Tensor) *tensor.Tensor {
	c, nb, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := ws.GetDirty(c, nb, h*2, w*2)
	for pl := 0; pl < c*nb; pl++ {
		for y := 0; y < h; y++ {
			src := x.Data[pl*h*w+y*w : pl*h*w+(y+1)*w]
			d0 := out.Data[pl*4*h*w+(2*y)*2*w:]
			d1 := out.Data[pl*4*h*w+(2*y+1)*2*w:]
			for xx, v := range src {
				d0[2*xx], d0[2*xx+1] = v, v
				d1[2*xx], d1[2*xx+1] = v, v
			}
		}
	}
	return out
}

// argmax computes per-sample argmax masks from CNHW logits
// [NumClasses, N, H, W], mirroring tensor.ArgmaxChannel's comparison order
// (ties keep the lowest class). Mask storage is recycled across calls.
func (bc *batchCtx) argmax(logits *tensor.Tensor) [][]int32 {
	nc, nb, h, w := logits.Dim(0), logits.Dim(1), logits.Dim(2), logits.Dim(3)
	hw := h * w
	if cap(bc.flat) < nb*hw {
		bc.flat = make([]int32, nb*hw)
	}
	bc.flat = bc.flat[:nb*hw]
	if cap(bc.masks) < nb {
		bc.masks = make([][]int32, nb)
	}
	bc.masks = bc.masks[:nb]
	ld := logits.Data
	for i := 0; i < nb; i++ {
		mask := bc.flat[i*hw : (i+1)*hw]
		for p := 0; p < hw; p++ {
			best := ld[i*hw+p]
			bi := int32(0)
			for ch := 1; ch < nc; ch++ {
				if v := ld[(ch*nb+i)*hw+p]; v > best {
					best = v
					bi = int32(ch)
				}
			}
			mask[p] = bi
		}
		bc.masks[i] = mask
	}
	return bc.masks
}
