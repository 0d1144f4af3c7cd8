package loss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// crossEntropy is SoftmaxCrossEntropyInto into a fresh gradient tensor.
func crossEntropy(logits *tensor.Tensor, label []int32, weights []float32) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Shape()...)
	return SoftmaxCrossEntropyInto(grad, logits, label, weights), grad
}

func TestPixelWeightsMarkObjectNeighbourhood(t *testing.T) {
	// 5x5 mask with one object pixel in the centre.
	label := make([]int32, 25)
	label[12] = 3
	w := PixelWeightsInto(nil, label, 5, 5)
	// Everything within WeightRadius of the centre gets ObjectWeight.
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			within := abs(y-2) <= WeightRadius && abs(x-2) <= WeightRadius
			want := float32(1)
			if within {
				want = ObjectWeight
			}
			if w[y*5+x] != want {
				t.Fatalf("weight[%d,%d] = %v, want %v", y, x, w[y*5+x], want)
			}
		}
	}
}

func TestPixelWeightsAllBackground(t *testing.T) {
	w := PixelWeightsInto(nil, make([]int32, 16), 4, 4)
	for _, v := range w {
		if v != 1 {
			t.Fatal("background-only mask must weight uniformly")
		}
	}
}

func TestPixelWeightsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PixelWeightsInto(nil, make([]int32, 3), 2, 2)
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	// Logits strongly favouring the correct class → near-zero loss.
	logits := tensor.New(3, 1, 2)
	label := []int32{1, 2}
	logits.Set(20, 1, 0, 0)
	logits.Set(20, 2, 0, 1)
	l, grad := crossEntropy(logits, label, nil)
	if l > 1e-6 {
		t.Fatalf("perfect prediction loss = %v", l)
	}
	if g := grad.L2Norm(); g > 1e-3 {
		t.Fatalf("perfect prediction grad norm = %v", g)
	}
}

func TestSoftmaxCrossEntropyUniformLogits(t *testing.T) {
	// Uniform logits over C classes → loss = ln C.
	logits := tensor.New(4, 1, 1)
	l, _ := crossEntropy(logits, []int32{2}, nil)
	if math.Abs(l-math.Log(4)) > 1e-5 {
		t.Fatalf("uniform loss = %v, want ln4 = %v", l, math.Log(4))
	}
}

func TestSoftmaxCrossEntropyGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(3, 2, 2)
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64())
	}
	label := []int32{0, 1, 2, 1}
	weights := []float32{1, 5, 1, 5}
	_, grad := crossEntropy(logits, label, weights)
	const eps = 1e-3
	for _, i := range []int{0, 5, 11} {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := crossEntropy(logits, label, weights)
		logits.Data[i] = orig - eps
		lm, _ := crossEntropy(logits, label, weights)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyWeightsShiftLoss(t *testing.T) {
	logits := tensor.New(2, 1, 2)
	logits.Set(2, 0, 0, 0) // pixel 0 biased to class 0
	logits.Set(2, 0, 0, 1) // pixel 1 biased to class 0 too
	label := []int32{1, 0} // pixel 0 is wrong, pixel 1 right
	lUnif, _ := crossEntropy(logits, label, nil)
	// Upweighting the wrong pixel must increase the weighted-mean loss.
	lWrong, _ := crossEntropy(logits, label, []float32{5, 1})
	if lWrong <= lUnif {
		t.Fatalf("upweighting the erroneous pixel should raise loss: %v vs %v", lWrong, lUnif)
	}
}

func TestSoftmaxCrossEntropyLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	crossEntropy(tensor.New(2, 1, 1), []int32{7}, nil)
}

// Property: loss is non-negative and grad sums to ~0 per pixel (softmax
// gradient rows sum to zero).
func TestQuickCrossEntropyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 2 + rng.Intn(4)
		h, w := 1+rng.Intn(3), 1+rng.Intn(3)
		logits := tensor.New(c, h, w)
		for i := range logits.Data {
			logits.Data[i] = float32(rng.NormFloat64() * 3)
		}
		label := make([]int32, h*w)
		for i := range label {
			label[i] = int32(rng.Intn(c))
		}
		l, grad := crossEntropy(logits, label, nil)
		if l < 0 {
			return false
		}
		hw := h * w
		for px := 0; px < hw; px++ {
			var s float64
			for ch := 0; ch < c; ch++ {
				s += float64(grad.Data[ch*hw+px])
			}
			if math.Abs(s) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// serialCrossEntropy is the textbook two-pass form of
// SoftmaxCrossEntropyInto: unscaled gradients first, the 1/totalWeight
// scaling in a second pass, and a scaled gradient that is subnormal written
// as the zero of its sign. The gradient it writes is the reference the
// one-pass version must reproduce bit for bit; it returns the loss and the
// number of entries the flush zeroed.
func serialCrossEntropy(grad, logits *tensor.Tensor, label []int32, weights []float32) (float64, int) {
	c, hw := logits.Dim(0), logits.Dim(1)*logits.Dim(2)
	probs := make([]float64, c)
	var totalLoss, totalWeight float64
	for p := 0; p < hw; p++ {
		m := float64(logits.Data[p])
		for ch := 1; ch < c; ch++ {
			m = math.Max(m, float64(logits.Data[ch*hw+p]))
		}
		var z float64
		for ch := 0; ch < c; ch++ {
			probs[ch] = math.Exp(float64(logits.Data[ch*hw+p]) - m)
			z += probs[ch]
		}
		wt := 1.0
		if weights != nil {
			wt = float64(weights[p])
		}
		lbl := int(label[p])
		totalLoss += -wt * math.Log(probs[lbl]/z+1e-12)
		totalWeight += wt
		for ch := 0; ch < c; ch++ {
			g := probs[ch] / z
			if ch == lbl {
				g -= 1
			}
			grad.Data[ch*hw+p] = float32(wt * g)
		}
	}
	inv := float32(1 / totalWeight)
	flushed := 0
	for i := range grad.Data {
		v := grad.Data[i] * inv
		if math.Abs(float64(v)) < 0x1p-126 && v != 0 {
			v = float32(math.Copysign(0, float64(v)))
			flushed++
		}
		grad.Data[i] = v
	}
	return totalLoss / totalWeight, flushed
}

// The one-pass loss reproduces the two-pass reference bit for bit —
// gradient and loss value — weighted and unweighted, into a destination
// full of NaNs, on an odd pixel count. The ×400 logits open channel gaps
// past 708, where exponentials leave math.Exp's fast path (to denormals
// and zeros), and make scaled gradients the flush must zero. The flush
// touches only the gradient: the loss, summed from the label
// probabilities, is the unflushed two-pass form's.
func TestSoftmaxCrossEntropyMatchesTwoPassReference(t *testing.T) {
	for _, scale := range []float64{4, 400} {
		rng := rand.New(rand.NewSource(5))
		const c, h, w = 9, 37, 61
		logits := tensor.New(c, h, w)
		for i := range logits.Data {
			logits.Data[i] = float32(rng.NormFloat64() * scale)
		}
		label := make([]int32, h*w)
		for i := range label {
			label[i] = int32(rng.Intn(c))
		}
		for _, weights := range [][]float32{nil, PixelWeightsInto(nil, label, h, w)} {
			want := tensor.New(c, h, w)
			wantLoss, flushed := serialCrossEntropy(want, logits, label, weights)
			if scale == 400 && flushed == 0 {
				t.Fatalf("scale 400: no scaled gradient is subnormal, so the flush goes untested")
			}
			got := tensor.New(c, h, w)
			got.Fill(float32(math.NaN()))
			l := SoftmaxCrossEntropyInto(got, logits, label, weights)
			for j, v := range got.Data {
				if math.Float32bits(v) != math.Float32bits(want.Data[j]) {
					t.Fatalf("scale %v: grad[%d] = %v, two-pass reference %v", scale, j, v, want.Data[j])
				}
			}
			if l != wantLoss {
				t.Fatalf("scale %v: loss %v, two-pass reference %v", scale, l, wantLoss)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkSoftmaxCrossEntropy times the distillation loss on the student's
// output shape: 9 classes over a 96x64 frame, weighted.
func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const c, h, w = 9, 64, 96
	logits, grad := tensor.New(c, h, w), tensor.New(c, h, w)
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64() * 4)
	}
	label := make([]int32, h*w)
	for i := range label {
		label[i] = int32(rng.Intn(c))
	}
	weights := PixelWeightsInto(nil, label, h, w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SoftmaxCrossEntropyInto(grad, logits, label, weights)
	}
}
