package nn

import (
	"math/rand"

	"repro/internal/autodiff"
	"repro/internal/tensor"
)

// ForwardCtx carries the per-pass tape, training flag and the map from
// parameter name to tape variable (used afterwards to pull gradients).
type ForwardCtx struct {
	Tape     *autodiff.Tape
	Training bool
	Vars     map[string]*autodiff.Variable
}

// NewForwardCtxWS returns a context whose tape leases every tensor from ws.
// Combined with Reset, a long-lived context runs pass after pass with
// near-zero steady-state allocations; each Reset invalidates the previous
// pass's values and gradients. A nil ws allocates instead: values the
// context produces stay valid indefinitely.
func NewForwardCtxWS(training bool, ws *tensor.Workspace) *ForwardCtx {
	return &ForwardCtx{Tape: autodiff.NewTapeWS(ws), Training: training, Vars: map[string]*autodiff.Variable{}}
}

// Reset prepares the context for a fresh pass, recycling the tape (and its
// workspace leases, when present) and clearing the parameter map.
func (fc *ForwardCtx) Reset(training bool) {
	fc.Tape.Reset()
	fc.Training = training
	clear(fc.Vars)
}

// Var registers p's value on the tape (once per pass) and returns the tape
// variable. Frozen parameters are registered without gradient requirement.
func (fc *ForwardCtx) Var(p *Parameter) *autodiff.Variable {
	if v, ok := fc.Vars[p.Name]; ok {
		return v
	}
	v := fc.Tape.Leaf(p.Value, fc.Training && !p.Frozen)
	fc.Vars[p.Name] = v
	return v
}

// Conv2D is a convolution layer with optional bias.
type Conv2D struct {
	Spec   tensor.ConvSpec
	Weight *Parameter
	Bias   *Parameter // nil when biasless (conv followed by BatchNorm)
}

// NewConv2D creates a conv layer registered under name in ps with
// Kaiming-initialised weights.
func NewConv2D(ps *ParamSet, name string, inC, outC int, spec tensor.ConvSpec, bias bool, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC, spec.KH, spec.KW)
	InitKaiming(w, rng)
	l := &Conv2D{Spec: spec, Weight: ps.Add(name+".w", w)}
	if bias {
		l.Bias = ps.Add(name+".b", tensor.New(outC))
	}
	return l
}

// Forward applies the layer to x on fc's tape, registering its parameters
// there with requiresGrad derived from the frozen flag.
func (l *Conv2D) Forward(fc *ForwardCtx, x *autodiff.Variable) *autodiff.Variable {
	var b *autodiff.Variable
	if l.Bias != nil {
		b = fc.Var(l.Bias)
	}
	return fc.Tape.Conv2D(x, fc.Var(l.Weight), b, l.Spec)
}

// BatchNorm2D is per-channel batch normalisation with running statistics.
// Running stats ride along with the learnable parameters during
// serialization so a shipped student behaves identically on the client.
//
// A layer whose gamma and beta are both frozen is frozen whole: it
// normalises with its running statistics even in a training pass and never
// moves them, so a frozen block is a pure function of (weights, input) —
// what lets Student.Prefix compute it once per key frame, and what keeps
// the server's frozen blocks bit-identical to the client's.
type BatchNorm2D struct {
	Gamma, Beta     *Parameter
	RunMean, RunVar *Parameter
	Momentum, Eps   float32
}

// NewBatchNorm2D creates a BN layer for c channels registered under name.
func NewBatchNorm2D(ps *ParamSet, name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		Gamma:    ps.Add(name+".gamma", tensor.Full(1, c)),
		Beta:     ps.Add(name+".beta", tensor.New(c)),
		RunMean:  ps.Add(name+".rmean", tensor.New(c)),
		RunVar:   ps.Add(name+".rvar", tensor.Full(1, c)),
		Momentum: 0.1,
		Eps:      1e-5,
	}
	// Running statistics are buffers, never optimised.
	bn.RunMean.Frozen = true
	bn.RunVar.Frozen = true
	return bn
}

// Forward applies the layer to x on fc's tape.
func (bn *BatchNorm2D) Forward(fc *ForwardCtx, x *autodiff.Variable) *autodiff.Variable {
	return fc.Tape.BatchNorm(x, fc.Var(bn.Gamma), fc.Var(bn.Beta),
		bn.RunMean.Value, bn.RunVar.Value, fc.Training && bn.trains(), bn.Momentum, bn.Eps)
}

// trains reports whether the layer still learns: only then does a training
// pass use batch statistics and update the running ones (and only then does
// TrainableSubset ship them).
func (bn *BatchNorm2D) trains() bool { return !bn.Gamma.Frozen || !bn.Beta.Frozen }

// StudentBlock is the residual block of Fig. 3a: BatchNorm → Conv3×3 →
// Conv3×1 → Conv1×3 → Conv1×1, with a skip connection added to the output.
// When in and out channel counts differ (or the block downsamples), the
// skip path uses a 1×1 projection.
type StudentBlock struct {
	Name string
	BN   *BatchNorm2D
	C33  *Conv2D
	C31  *Conv2D
	C13  *Conv2D
	C11  *Conv2D
	Proj *Conv2D // nil when identity skip works
}

// NewStudentBlock constructs a block mapping inC→outC channels with the
// given stride on the 3×3 conv (stride 2 halves the spatial size).
func NewStudentBlock(ps *ParamSet, name string, inC, outC, stride int, rng *rand.Rand) *StudentBlock {
	b := &StudentBlock{
		Name: name,
		BN:   NewBatchNorm2D(ps, name+".bn", inC),
		C33:  NewConv2D(ps, name+".c33", inC, outC, tensor.Spec(3, 3).WithStride(stride), false, rng),
		C31:  NewConv2D(ps, name+".c31", outC, outC, tensor.Spec(3, 1), false, rng),
		C13:  NewConv2D(ps, name+".c13", outC, outC, tensor.Spec(1, 3), false, rng),
		C11:  NewConv2D(ps, name+".c11", outC, outC, tensor.Spec(1, 1), true, rng),
	}
	if inC != outC || stride != 1 {
		b.Proj = NewConv2D(ps, name+".proj", inC, outC, tensor.Spec(1, 1).WithStride(stride), false, rng)
	}
	return b
}

// Forward applies the block to x on fc's tape. Each activation goes back to
// the tape after its last consumer (autodiff.Tape.Free: a no-op wherever a
// backward pass could still read it); x stays the caller's.
func (b *StudentBlock) Forward(fc *ForwardCtx, x *autodiff.Variable) *autodiff.Variable {
	t := fc.Tape
	h := b.BN.Forward(fc, x)
	for _, l := range [...]*Conv2D{b.C33, b.C31, b.C13} {
		in := h
		h = convReLU(fc, l, in)
		t.Free(in)
	}
	c := b.C11.Forward(fc, h)
	t.Free(h)
	skip := x
	if b.Proj != nil {
		skip = b.Proj.Forward(fc, x)
	}
	sum := t.Add(c, skip)
	t.Free(c)
	if b.Proj != nil {
		t.Free(skip)
	}
	out := t.ReLU(sum)
	t.Free(sum)
	return out
}

// convReLU returns ReLU(l(x)), handing the pre-activation back to the tape.
func convReLU(fc *ForwardCtx, l *Conv2D, x *autodiff.Variable) *autodiff.Variable {
	c := l.Forward(fc, x)
	h := fc.Tape.ReLU(c)
	fc.Tape.Free(c)
	return h
}
