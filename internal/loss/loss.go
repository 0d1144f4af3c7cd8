// Package loss implements the distillation loss used by ShadowTutor for
// video semantic segmentation: pixel-wise softmax cross-entropy against the
// teacher's mask, with the LVS-style class-imbalance weighting of §5.2
// (pixels near or inside non-background objects count ×5).
package loss

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// ObjectWeight is the loss scale applied to pixels within WeightRadius of a
// non-background pixel, following the LVS dataset paper's weighting that
// ShadowTutor adopts directly (§5.2).
const (
	ObjectWeight = 5.0
	WeightRadius = 2
)

// PixelWeightsInto writes a per-pixel weight map (len H*W) for a label mask
// into dst: ObjectWeight near/within non-background objects, 1 elsewhere.
// label holds class indices with 0 = background. dst is grown (only) when
// too small and returned; pass a retained buffer to avoid per-frame
// allocation.
func PixelWeightsInto(dst []float32, label []int32, h, w int) []float32 {
	if len(label) != h*w {
		panic(fmt.Sprintf("loss: label length %d != %dx%d", len(label), h, w))
	}
	wts := dst
	if cap(wts) < h*w {
		wts = make([]float32, h*w)
	}
	wts = wts[:h*w]
	for i := range wts {
		wts[i] = 1
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if label[y*w+x] == 0 {
				continue
			}
			y0, y1 := max(0, y-WeightRadius), min(h-1, y+WeightRadius)
			x0, x1 := max(0, x-WeightRadius), min(w-1, x+WeightRadius)
			for yy := y0; yy <= y1; yy++ {
				for xx := x0; xx <= x1; xx++ {
					wts[yy*w+xx] = ObjectWeight
				}
			}
		}
	}
	return wts
}

// lossScratch is the float64 count of the chunk scratch
// SoftmaxCrossEntropyInto hands tensor.SoftmaxXentInto; logits wider than
// lossScratch/4 - 1 classes allocate a larger one per call.
const lossScratch = 2048

// xentScratch is SoftmaxCrossEntropyInto's pooled working memory: the
// per-pixel label probabilities and the kernel's chunk scratch.
type xentScratch struct {
	q     []float64
	chunk [lossScratch]float64
}

var scratchPool = sync.Pool{New: func() any { return new(xentScratch) }}

// SoftmaxCrossEntropyInto returns the weighted mean cross-entropy between
// logits (CHW, C classes) and the integer label mask (len H*W), and writes
// the gradient of that loss with respect to the logits into grad (same
// shape as logits, every element overwritten). weights may be nil for
// uniform weighting.
//
// The total weight every gradient is divided by, and the label range check,
// are taken in a first pass, so each pixel's gradient is written once,
// already scaled. tensor.SoftmaxXentInto then computes the softmax and the
// gradient channel-major over chunks of pixels, and the loss sums
// -w·log(p[label] + 1e-12) over pixels in ascending order.
//
// Numerics: the gradient and the loss are bit-identical to the scalar
// two-pass form — per pixel a stable softmax in float64, math.Exp's
// exponentials, the unscaled gradient rounded to float32 and then scaled by
// float32(1/totalWeight), a scaled gradient below 2^-126 in magnitude then
// written as the zero of its sign — on every kernel set (the test's
// serialCrossEntropy is that form). The flush spares the conv backward the
// microcode assists its FMAs take on subnormal operands (about 5 % of the
// entries on the drone stream; tensor.SoftmaxXentInto gives the figures),
// leaves the loss value alone, and moves no weight the pinned training
// runs check.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, label []int32, weights []float32) float64 {
	c, h, w := logits.Dim(0), logits.Dim(1), logits.Dim(2)
	hw := h * w
	if len(label) != hw {
		panic(fmt.Sprintf("loss: label length %d != spatial size %d", len(label), hw))
	}
	if weights != nil && len(weights) != hw {
		panic(fmt.Sprintf("loss: weights length %d != spatial size %d", len(weights), hw))
	}
	if !tensor.ShapeEq(grad.Shape(), logits.Shape()) {
		panic(fmt.Sprintf("loss: grad shape %v != logits shape %v", grad.Shape(), logits.Shape()))
	}
	var totalWeight float64
	for p, lbl := range label {
		if lbl < 0 || int(lbl) >= c {
			panic(fmt.Sprintf("loss: label %d out of range [0,%d)", lbl, c))
		}
		if weights != nil {
			totalWeight += float64(weights[p])
		} else {
			totalWeight++
		}
	}
	// With no weight anywhere every gradient is a zero left unscaled.
	inv := float32(1)
	if totalWeight != 0 {
		inv = float32(1 / totalWeight)
	}
	sc := scratchPool.Get().(*xentScratch)
	defer scratchPool.Put(sc)
	if cap(sc.q) < hw {
		sc.q = make([]float64, hw)
	}
	q := sc.q[:hw]
	chunk := sc.chunk[:]
	if lossScratch/(c+1) < 4 {
		chunk = make([]float64, 4*(c+1))
	}
	tensor.SoftmaxXentInto(grad.Data, q, logits.Data, hw, c, label, weights, inv, chunk)
	var totalLoss float64
	for p, pl := range q {
		wt := 1.0
		if weights != nil {
			wt = float64(weights[p])
		}
		totalLoss += -wt * math.Log(pl+1e-12)
	}
	if totalWeight == 0 {
		return 0
	}
	return totalLoss / totalWeight
}
