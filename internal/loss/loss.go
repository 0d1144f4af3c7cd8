// Package loss implements the distillation loss used by ShadowTutor for
// video semantic segmentation: pixel-wise softmax cross-entropy against the
// teacher's mask, with the LVS-style class-imbalance weighting of §5.2
// (pixels near or inside non-background objects count ×5).
package loss

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ObjectWeight is the loss scale applied to pixels within WeightRadius of a
// non-background pixel, following the LVS dataset paper's weighting that
// ShadowTutor adopts directly (§5.2).
const (
	ObjectWeight = 5.0
	WeightRadius = 2
)

// PixelWeights returns a per-pixel weight map (len H*W) for a label mask:
// ObjectWeight near/within non-background objects, 1 elsewhere. label holds
// class indices with 0 = background.
func PixelWeights(label []int32, h, w int) []float32 {
	return PixelWeightsInto(nil, label, h, w)
}

// PixelWeightsInto is PixelWeights writing into dst, which is grown (only)
// when too small and returned; pass a retained buffer to avoid per-frame
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

// SoftmaxCrossEntropy computes the weighted mean cross-entropy between
// logits (CHW, C classes) and the integer label mask (len H*W), and the
// gradient of that loss with respect to the logits. weights may be nil for
// uniform weighting. The gradient tensor has the logits' shape.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label []int32, weights []float32) (lossVal float64, grad *tensor.Tensor) {
	grad = tensor.New(logits.Shape()...)
	lossVal = SoftmaxCrossEntropyInto(grad, logits, label, weights, nil)
	return lossVal, grad
}

// lossChunk is the pixel range one parallel task of SoftmaxCrossEntropyInto
// covers. Task boundaries depend on it and on H·W alone — never on the
// worker count — and the tasks' partial losses are added in task order, so
// the returned loss is the same on every machine.
const lossChunk = 512

// maxStackClasses bounds the class count whose per-pixel softmax scratch
// lives on a task's stack; wider logits allocate it per task.
const maxStackClasses = 32

// ScratchLen returns the scratch length SoftmaxCrossEntropyInto needs for
// logits of hw pixels: one partial loss per task.
func ScratchLen(hw int) int { return (hw + lossChunk - 1) / lossChunk }

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the logit gradient
// into grad (same shape as logits, every element overwritten). scratch is
// optional, of length ≥ ScratchLen(H·W); pass a retained buffer to avoid
// per-step allocation.
//
// The H·W·C exponentials run on tensor.Parallel over fixed pixel ranges.
// The total weight every gradient is divided by, and the label range check,
// are taken in a serial pass first, so each pixel's gradient is computed
// from the same operands in the same order whatever the worker count.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, label []int32, weights []float32, scratch []float64) float64 {
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
	tasks := ScratchLen(hw)
	if cap(scratch) < tasks {
		scratch = make([]float64, tasks)
	}
	partial := scratch[:tasks]
	tensor.Parallel(tasks, 1, func(lo, hi int) {
		var stack [maxStackClasses]float64
		probs := stack[:]
		if c > maxStackClasses {
			probs = make([]float64, c)
		}
		probs = probs[:c]
		for task := lo; task < hi; task++ {
			var taskLoss float64
			for p := task * lossChunk; p < min(hw, (task+1)*lossChunk); p++ {
				// stable softmax over channels at pixel p
				m := float64(logits.Data[p])
				for ch := 1; ch < c; ch++ {
					if v := float64(logits.Data[ch*hw+p]); v > m {
						m = v
					}
				}
				var z float64
				for ch := 0; ch < c; ch++ {
					e := math.Exp(float64(logits.Data[ch*hw+p]) - m)
					probs[ch] = e
					z += e
				}
				wt := 1.0
				if weights != nil {
					wt = float64(weights[p])
				}
				lbl := int(label[p])
				taskLoss += -wt * math.Log(probs[lbl]/z+1e-12)
				for ch := 0; ch < c; ch++ {
					g := probs[ch] / z
					if ch == lbl {
						g -= 1
					}
					grad.Data[ch*hw+p] = float32(wt*g) * inv
				}
			}
			partial[task] = taskLoss
		}
	})
	if totalWeight == 0 {
		return 0
	}
	var totalLoss float64
	for _, l := range partial {
		totalLoss += l
	}
	return totalLoss / totalWeight
}

// Softmax returns per-pixel channel probabilities for CHW logits.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	c, h, w := logits.Dim(0), logits.Dim(1), logits.Dim(2)
	hw := h * w
	out := tensor.New(c, h, w)
	for p := 0; p < hw; p++ {
		m := float64(logits.Data[p])
		for ch := 1; ch < c; ch++ {
			if v := float64(logits.Data[ch*hw+p]); v > m {
				m = v
			}
		}
		var z float64
		for ch := 0; ch < c; ch++ {
			z += math.Exp(float64(logits.Data[ch*hw+p]) - m)
		}
		for ch := 0; ch < c; ch++ {
			out.Data[ch*hw+p] = float32(math.Exp(float64(logits.Data[ch*hw+p])-m) / z)
		}
	}
	return out
}
