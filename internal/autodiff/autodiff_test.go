package autodiff

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func TestBackwardAdd(t *testing.T) {
	tp := NewTapeWS(nil)
	a := tp.Leaf(tensor.FromSlice([]float32{1, 2}, 2), true)
	b := tp.Leaf(tensor.FromSlice([]float32{3, 4}, 2), true)
	c := tp.Add(a, b)
	tp.Backward(c, nil)
	for _, v := range append(a.Grad.Data, b.Grad.Data...) {
		if v != 1 {
			t.Fatalf("Add grads should be ones, got %v %v", a.Grad.Data, b.Grad.Data)
		}
	}
}

func TestBackwardMulProductRule(t *testing.T) {
	tp := NewTapeWS(nil)
	a := tp.Leaf(tensor.FromSlice([]float32{2}, 1), true)
	b := tp.Leaf(tensor.FromSlice([]float32{5}, 1), true)
	c := tp.Mul(a, b)
	tp.Backward(c, nil)
	if a.Grad.Data[0] != 5 || b.Grad.Data[0] != 2 {
		t.Fatalf("product rule: got da=%v db=%v", a.Grad.Data, b.Grad.Data)
	}
}

func TestBackwardSubAndScale(t *testing.T) {
	tp := NewTapeWS(nil)
	a := tp.Leaf(tensor.FromSlice([]float32{1}, 1), true)
	b := tp.Leaf(tensor.FromSlice([]float32{1}, 1), true)
	c := tp.Scale(tp.Sub(a, b), 3)
	tp.Backward(c, nil)
	if a.Grad.Data[0] != 3 || b.Grad.Data[0] != -3 {
		t.Fatalf("got da=%v db=%v", a.Grad.Data, b.Grad.Data)
	}
}

func TestFrozenLeafGetsNoGrad(t *testing.T) {
	tp := NewTapeWS(nil)
	a := tp.Leaf(tensor.FromSlice([]float32{1}, 1), false)
	b := tp.Leaf(tensor.FromSlice([]float32{2}, 1), true)
	c := tp.Mul(a, b)
	tp.Backward(c, nil)
	if a.Grad != nil {
		t.Fatal("frozen leaf must not accumulate gradient")
	}
	if b.Grad == nil {
		t.Fatal("trainable leaf must accumulate gradient")
	}
}

// The central partial-distillation property: when every leaf of a subgraph
// is frozen, none of its op closures run at backward time.
func TestBackwardPrunesFrozenSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	build := func(frozenFront bool) int {
		tp := NewTapeWS(nil)
		x := tp.Constant(randT(rng, 2, 4, 4))
		w1 := tp.Leaf(randT(rng, 2, 2, 3, 3), !frozenFront)
		h := tp.ReLU(tp.Conv2D(x, w1, nil, tensor.Spec(3, 3)))
		w2 := tp.Leaf(randT(rng, 2, 2, 3, 3), true)
		y := tp.Conv2D(h, w2, nil, tensor.Spec(3, 3))
		loss := tp.SumScalar(y)
		return tp.Backward(loss, nil)
	}
	full := build(false)
	partial := build(true)
	if partial >= full {
		t.Fatalf("frozen front must reduce backward ops: partial=%d full=%d", partial, full)
	}
}

func TestBackwardOnNoGradRootIsNoop(t *testing.T) {
	tp := NewTapeWS(nil)
	a := tp.Constant(tensor.New(2))
	b := tp.Add(a, a)
	if n := tp.Backward(b, nil); n != 0 {
		t.Fatalf("backward through constants ran %d closures", n)
	}
}

func TestBackwardSeedShapeMismatchPanics(t *testing.T) {
	tp := NewTapeWS(nil)
	a := tp.Leaf(tensor.New(2), true)
	b := tp.Add(a, a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad seed shape")
		}
	}()
	tp.Backward(b, tensor.New(3))
}

func TestMixedTapePanics(t *testing.T) {
	t1, t2 := NewTapeWS(nil), NewTapeWS(nil)
	a := t1.Leaf(tensor.New(1), true)
	b := t2.Leaf(tensor.New(1), true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mixed tapes")
		}
	}()
	t1.Add(a, b)
}

func TestGradAccumulationThroughFanout(t *testing.T) {
	// y = a + a ⇒ dy/da = 2.
	tp := NewTapeWS(nil)
	a := tp.Leaf(tensor.FromSlice([]float32{1}, 1), true)
	y := tp.Add(a, a)
	tp.Backward(y, nil)
	if a.Grad.Data[0] != 2 {
		t.Fatalf("fan-out grad = %v, want 2", a.Grad.Data[0])
	}
}

func TestResetDropsNodes(t *testing.T) {
	tp := NewTapeWS(nil)
	a := tp.Leaf(tensor.FromSlice([]float32{1}, 1), true)
	y := tp.Add(a, a)
	tp.Backward(y, nil)
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatal("Reset must drop nodes")
	}
}

// Gradient check the composite ops against finite differences.
func TestNumericGradConvReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randT(rng, 2, 4, 4)
	w := randT(rng, 3, 2, 3, 3)
	seed := randT(rng, 3, 4, 4)

	build := func() float64 {
		tp := NewTapeWS(nil)
		xv := tp.Constant(x)
		wv := tp.Leaf(w, true)
		y := tp.ReLU(tp.Conv2D(xv, wv, nil, tensor.Spec(3, 3)))
		var l float64
		for i := range y.Value.Data {
			l += float64(y.Value.Data[i]) * float64(seed.Data[i])
		}
		return l
	}
	tp := NewTapeWS(nil)
	xv := tp.Constant(x)
	wv := tp.Leaf(w, true)
	y := tp.ReLU(tp.Conv2D(xv, wv, nil, tensor.Spec(3, 3)))
	tp.Backward(y, seed)

	num := NumericGrad(w, build, 1e-3)
	if e := MaxRelError(wv.Grad, num, 0.1); e > 0.05 {
		t.Fatalf("conv+relu grad error %g", e)
	}
}

func TestNumericGradBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randT(rng, 2, 3, 3)
	gamma := tensor.Full(1.5, 2)
	beta := tensor.Full(0.2, 2)
	seed := randT(rng, 2, 3, 3)

	lossOf := func() float64 {
		tp := NewTapeWS(nil)
		xv := tp.Leaf(x, true)
		g := tp.Leaf(gamma, true)
		b := tp.Leaf(beta, true)
		rm, rv := tensor.New(2), tensor.Full(1, 2)
		y := tp.BatchNorm(xv, g, b, rm, rv, true, 0.1, 1e-5)
		var l float64
		for i := range y.Value.Data {
			l += float64(y.Value.Data[i]) * float64(seed.Data[i])
		}
		return l
	}
	tp := NewTapeWS(nil)
	xv := tp.Leaf(x, true)
	g := tp.Leaf(gamma, true)
	b := tp.Leaf(beta, true)
	rm, rv := tensor.New(2), tensor.Full(1, 2)
	y := tp.BatchNorm(xv, g, b, rm, rv, true, 0.1, 1e-5)
	tp.Backward(y, seed)

	for _, tc := range []struct {
		name  string
		param *tensor.Tensor
		grad  *tensor.Tensor
	}{{"x", x, xv.Grad}, {"gamma", gamma, g.Grad}, {"beta", beta, b.Grad}} {
		num := NumericGrad(tc.param, lossOf, 1e-3)
		if e := MaxRelError(tc.grad, num, 0.1); e > 0.08 {
			t.Fatalf("batchnorm %s grad error %g", tc.name, e)
		}
	}
}

func TestNumericGradUpsamplePoolConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randT(rng, 1, 2, 2)
	b := randT(rng, 1, 4, 4)
	seed := randT(rng, 2, 4, 4)

	lossOf := func() float64 {
		tp := NewTapeWS(nil)
		av := tp.Leaf(a, true)
		bv := tp.Leaf(b, true)
		y := tp.Concat(tp.Upsample2x(av), bv)
		var l float64
		for i := range y.Value.Data {
			l += float64(y.Value.Data[i]) * float64(seed.Data[i])
		}
		return l
	}
	tp := NewTapeWS(nil)
	av := tp.Leaf(a, true)
	bv := tp.Leaf(b, true)
	y := tp.Concat(tp.Upsample2x(av), bv)
	tp.Backward(y, seed)

	numA := NumericGrad(a, lossOf, 1e-3)
	if e := MaxRelError(av.Grad, numA, 0.1); e > 0.05 {
		t.Fatalf("upsample grad error %g", e)
	}
	numB := NumericGrad(b, lossOf, 1e-3)
	if e := MaxRelError(bv.Grad, numB, 0.1); e > 0.05 {
		t.Fatalf("concat grad error %g", e)
	}
}

func TestMatMulGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randT(rng, 3, 4)
	b := randT(rng, 4, 2)
	seed := randT(rng, 3, 2)
	lossOf := func() float64 {
		tp := NewTapeWS(nil)
		y := tp.MatMul(tp.Leaf(a, true), tp.Leaf(b, true))
		var l float64
		for i := range y.Value.Data {
			l += float64(y.Value.Data[i]) * float64(seed.Data[i])
		}
		return l
	}
	tp := NewTapeWS(nil)
	av := tp.Leaf(a, true)
	bv := tp.Leaf(b, true)
	y := tp.MatMul(av, bv)
	tp.Backward(y, seed)
	if e := MaxRelError(av.Grad, NumericGrad(a, lossOf, 1e-3), 0.1); e > 0.05 {
		t.Fatalf("matmul dA error %g", e)
	}
	if e := MaxRelError(bv.Grad, NumericGrad(b, lossOf, 1e-3), 0.1); e > 0.05 {
		t.Fatalf("matmul dB error %g", e)
	}
}

// Property: the SumScalar gradient is the all-ones tensor scaled by seed.
func TestQuickSumScalarGrad(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		tp := NewTapeWS(nil)
		a := tp.Leaf(randT(rng, n), true)
		s := tp.SumScalar(a)
		scale := float32(rng.NormFloat64())
		tp.Backward(s, tensor.FromSlice([]float32{scale}, 1))
		for _, g := range a.Grad.Data {
			if math.Abs(float64(g-scale)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randT(rng, 1, 2, 2)
	gamma := tensor.Full(1, 1)
	beta := tensor.New(1)
	rm := tensor.Full(0.5, 1)
	rv := tensor.Full(2, 1)
	tp := NewTapeWS(nil)
	y := tp.BatchNorm(tp.Constant(x), tp.Constant(gamma), tp.Constant(beta), rm, rv, false, 0.1, 0)
	// Inference mode must not mutate running stats.
	if rm.Data[0] != 0.5 || rv.Data[0] != 2 {
		t.Fatal("inference mode mutated running stats")
	}
	want := (float64(x.Data[0]) - 0.5) / math.Sqrt(2)
	if math.Abs(float64(y.Value.Data[0])-want) > 1e-5 {
		t.Fatalf("BN inference: got %v want %v", y.Value.Data[0], want)
	}
}

func TestBatchNormTrainingUpdatesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randT(rng, 1, 4, 4)
	rm, rv := tensor.New(1), tensor.Full(1, 1)
	tp := NewTapeWS(nil)
	tp.BatchNorm(tp.Constant(x), tp.Constant(tensor.Full(1, 1)), tp.Constant(tensor.New(1)), rm, rv, true, 0.5, 1e-5)
	if rm.Data[0] == 0 && rv.Data[0] == 1 {
		t.Fatal("training mode must update running stats")
	}
}

// freeGraph builds frozen conv → ReLU → trainable conv → ReLU → sum on a
// workspace tape, calling Free on every op output right after its last
// consumer when free is set, and returns the tape, the frozen-side
// activations, the trainable weight and the loss.
func freeGraph(free bool) (tp *Tape, c1, h, loss *Variable, w2 *Variable) {
	rng := rand.New(rand.NewSource(17))
	tp = NewTapeWS(tensor.NewWorkspaceOn(tensor.NewPool()))
	x := tp.Constant(randT(rng, 2, 6, 6))
	w1 := tp.Leaf(randT(rng, 3, 2, 3, 3), false)
	w2 = tp.Leaf(randT(rng, 2, 3, 3, 3), true)
	maybe := func(v *Variable) {
		if free {
			tp.Free(v)
		}
	}
	c1 = tp.Conv2D(x, w1, nil, tensor.Spec(3, 3))
	h = tp.ReLU(c1)
	maybe(c1)
	maybe(x) // a leaf: never the tape's to free
	c2 := tp.Conv2D(h, w2, nil, tensor.Spec(3, 3))
	maybe(h) // feeds an op that requires a gradient: held
	r := tp.ReLU(c2)
	maybe(c2)
	loss = tp.SumScalar(r)
	maybe(r)
	return tp, c1, h, loss, w2
}

// Free gives back exactly what no backward will read: the frozen conv's
// output goes, the activation feeding the trainable conv and everything
// downstream of the trainable weight stay, and the gradients are those of
// the same graph without a single Free.
func TestFreeReleasesOnlyWhatNoBackwardReads(t *testing.T) {
	tpF, c1, h, lossF, w2F := freeGraph(true)
	tpP, _, _, lossP, w2P := freeGraph(false)
	if c1.Value != nil {
		t.Fatal("an op output that requires no gradient and fed none must be freed")
	}
	if h.Value == nil {
		t.Fatal("Free released a value a gradient-requiring op's backward reads")
	}
	if got, want := tpF.Workspace().Leased(), tpP.Workspace().Leased()-1; got != want {
		t.Fatalf("leases outstanding with Free = %d, want %d (exactly the one frozen activation fewer)", got, want)
	}
	tpF.Backward(lossF, nil)
	tpP.Backward(lossP, nil)
	if w2F.Grad == nil || !slices.Equal(w2F.Grad.Data, w2P.Grad.Data) {
		t.Fatal("gradients of a graph sprinkled with Free calls differ from those without")
	}
}

// A value read after an effective Free is nil, so the read panics instead of
// seeing whatever the recycled lease holds by then; on a workspace-free tape
// Free is a no-op and the value stays.
func TestUseAfterFreePanics(t *testing.T) {
	_, c1, _, _, _ := freeGraph(true)
	defer func() {
		if recover() == nil {
			t.Fatal("reading a freed variable must panic")
		}
	}()
	c1.tape.ReLU(c1)
}

func TestFreeOnWorkspaceFreeTapeIsNoop(t *testing.T) {
	tp := NewTapeWS(nil)
	y := tp.ReLU(tp.Constant(tensor.FromSlice([]float32{-1, 2}, 2)))
	tp.Free(y)
	if y.Value == nil || y.Value.Data[1] != 2 {
		t.Fatal("Free on a workspace-free tape must leave the value alone")
	}
}
