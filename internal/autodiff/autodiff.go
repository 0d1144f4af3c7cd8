// Package autodiff implements reverse-mode automatic differentiation over
// internal/tensor values. A Tape records the forward graph; Backward walks
// it in reverse. Parameters can be frozen, in which case the backward pass
// prunes every edge that only feeds frozen leaves — this is the mechanism
// behind the paper's partial distillation (§4.2): "gradient computation can
// stop in the middle of the network".
//
// A tape may own a tensor.Workspace (NewTapeWS): every op output, gradient
// accumulator and backward temporary is then leased from the workspace and
// recycled on Reset, which is what drives steady-state allocations of the
// distill/inference hot path towards zero. The trade-off is a lifetime rule:
// Reset invalidates every Value and Grad produced on the tape since the
// previous Reset, so results that must outlive the pass have to be cloned
// (or the caller uses a workspace-free tape, which behaves exactly as
// before). Free returns one op output earlier than that, once nothing will
// read it again, so a pass that needs no gradient holds a layer's peak and
// not the whole graph. See ARCHITECTURE.md "Memory model".
package autodiff

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Variable is a node in the autodiff graph: a value plus (after Backward)
// its gradient. Leaf variables are parameters or inputs; interior variables
// are op outputs.
type Variable struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	tape         *Tape
	id           int
	requiresGrad bool
	op           bool   // produced by an op of the tape: Value is the tape's own lease
	held         bool   // fed an op whose output requires a gradient: a backward may read Value
	backward     func() // propagates v.Grad into input grads; nil for leaves
}

// varChunk is the allocation unit of the tape's variable arena. Chunks are
// never moved or shrunk, so *Variable pointers stay valid across appends;
// Reset just rewinds the in-use counter and reuses the structs in place.
const varChunk = 64

// Tape records operations for reverse-mode differentiation. It is not safe
// for concurrent use; each training step builds a fresh tape (or calls
// Reset).
type Tape struct {
	nodes  []*Variable
	chunks [][]Variable // arena backing the Variable structs
	nused  int
	ws     *tensor.Workspace
}

// NewTapeWS returns an empty tape that leases op outputs, gradients and
// backward temporaries from ws. Reset recycles them all. With a nil ws
// every op output is freshly allocated and stays valid indefinitely.
func NewTapeWS(ws *tensor.Workspace) *Tape { return &Tape{ws: ws} }

// Workspace returns the tape's workspace (nil for allocation-backed tapes).
func (t *Tape) Workspace() *tensor.Workspace { return t.ws }

// Reset discards all recorded nodes, retaining capacity, and — when the
// tape owns a workspace — recycles every tensor produced since the previous
// Reset. Values and gradients obtained from this tape become invalid.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.nused = 0
	t.ws.Reset()
}

// Len returns the number of recorded nodes (leaves + ops).
func (t *Tape) Len() int { return len(t.nodes) }

// newVar hands out a Variable from the arena, growing it chunk-wise.
func (t *Tape) newVar() *Variable {
	ci, cj := t.nused/varChunk, t.nused%varChunk
	if ci == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Variable, varChunk))
	}
	v := &t.chunks[ci][cj]
	t.nused++
	*v = Variable{}
	return v
}

// register appends a prepared variable to the recording order.
func (t *Tape) register(v *Variable) {
	v.tape = t
	v.id = len(t.nodes)
	t.nodes = append(t.nodes, v)
}

// Leaf registers a value on the tape. requiresGrad=false leaves (e.g. the
// frozen front of the student, or input frames) block gradient flow.
func (t *Tape) Leaf(val *tensor.Tensor, requiresGrad bool) *Variable {
	v := t.newVar()
	v.Value = val
	v.requiresGrad = requiresGrad
	t.register(v)
	return v
}

// Constant registers a value that never receives gradients.
func (t *Tape) Constant(val *tensor.Tensor) *Variable { return t.Leaf(val, false) }

// node creates an interior variable whose gradient requirement is the OR of
// its inputs'. The caller attaches the backward closure only when the node
// requires gradients, so the whole frozen prefix of a network records no
// closures and costs nothing at backward time (and, with a workspace, the
// inference path allocates no closures at all). A node that does require
// gradients marks its inputs held: its backward closure may read their
// values, so Free leaves them alone.
func (t *Tape) node(val *tensor.Tensor, inputs ...*Variable) *Variable {
	req := false
	for _, in := range inputs {
		if in.tape != t {
			panic("autodiff: mixing variables from different tapes")
		}
		if in.requiresGrad {
			req = true
		}
	}
	if req {
		for _, in := range inputs {
			in.held = true
		}
	}
	v := t.newVar()
	v.Value = val
	v.requiresGrad = req
	v.op = true
	t.register(v)
	return v
}

// Free returns v's value to the tape's workspace now instead of at Reset,
// for callers that know v has fed its last op. It acts only when no backward
// pass can read the value — v is an op output of this tape, requires no
// gradient and fed no op that does — and is a no-op otherwise (and on
// workspace-free tapes), so a forward pass may call it unconditionally: under
// training everything downstream of a trainable weight stays put. v.Value
// becomes nil, so a use after an effective Free panics instead of reading a
// recycled lease.
func (t *Tape) Free(v *Variable) {
	if t.ws == nil || v.tape != t || !v.op || v.requiresGrad || v.held {
		return
	}
	t.ws.Put(v.Value)
	v.Value = nil
}

// accum adds g into v.Grad (allocating or leasing on first use), borrowing
// g: the caller retains ownership. It is a no-op for variables that do not
// require gradients — this is the pruning that makes partial backward
// cheaper than full backward.
func (t *Tape) accum(v *Variable, g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = t.ws.GetDirty(g.Shape()...)
		v.Grad.CopyFrom(g)
		return
	}
	tensor.AxpyInto(v.Grad, 1, g)
}

// accumOwn transfers ownership of g — which must be a fresh lease from the
// tape's workspace (or a fresh allocation on workspace-free tapes) — into
// v.Grad, avoiding accum's defensive copy.
func (t *Tape) accumOwn(v *Variable, g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = g
		return
	}
	tensor.AxpyInto(v.Grad, 1, g)
}

// Backward seeds the gradient of root with seed (ones when nil) and
// propagates through the tape in reverse recording order. Only nodes with
// id ≤ root.id are visited. It returns the number of op nodes whose
// backward closure actually ran, which tests use to verify that freezing
// prunes work.
func (t *Tape) Backward(root *Variable, seed *tensor.Tensor) int {
	if root.tape != t {
		panic("autodiff: Backward on foreign variable")
	}
	if !root.requiresGrad {
		return 0
	}
	if seed == nil {
		root.Grad = t.ws.GetDirty(root.Value.Shape()...)
		root.Grad.Fill(1)
	} else {
		if !tensor.ShapeEq(seed.Shape(), root.Value.Shape()) {
			panic(fmt.Sprintf("autodiff: seed shape %v != root shape %v", seed.Shape(), root.Value.Shape()))
		}
		root.Grad = t.ws.GetDirty(root.Value.Shape()...)
		root.Grad.CopyFrom(seed)
	}
	ran := 0
	for i := root.id; i >= 0; i-- {
		n := t.nodes[i]
		if n.backward != nil && n.Grad != nil {
			n.backward()
			ran++
		}
	}
	return ran
}

// ---------------------------------------------------------------------------
// Ops. Each builds the output value eagerly (into workspace leases when the
// tape has one) and, only when gradients are required, registers a closure
// that pulls the output grad into the inputs.
// ---------------------------------------------------------------------------

// Add returns a + b.
func (t *Tape) Add(a, b *Variable) *Variable {
	out := t.ws.GetDirty(a.Value.Shape()...)
	tensor.AddInto(out, a.Value, b.Value)
	v := t.node(out, a, b)
	if v.requiresGrad {
		v.backward = func() {
			t.accum(a, v.Grad)
			t.accum(b, v.Grad)
		}
	}
	return v
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Variable) *Variable {
	out := t.ws.GetDirty(a.Value.Shape()...)
	tensor.SubInto(out, a.Value, b.Value)
	v := t.node(out, a, b)
	if v.requiresGrad {
		v.backward = func() {
			t.accum(a, v.Grad)
			if b.requiresGrad {
				g := t.ws.GetDirty(v.Grad.Shape()...)
				tensor.ScaleInto(g, v.Grad, -1)
				t.accumOwn(b, g)
			}
		}
	}
	return v
}

// Mul returns the elementwise product a*b.
func (t *Tape) Mul(a, b *Variable) *Variable {
	out := t.ws.GetDirty(a.Value.Shape()...)
	tensor.MulInto(out, a.Value, b.Value)
	v := t.node(out, a, b)
	if v.requiresGrad {
		v.backward = func() {
			if a.requiresGrad {
				g := t.ws.GetDirty(v.Grad.Shape()...)
				tensor.MulInto(g, v.Grad, b.Value)
				t.accumOwn(a, g)
			}
			if b.requiresGrad {
				g := t.ws.GetDirty(v.Grad.Shape()...)
				tensor.MulInto(g, v.Grad, a.Value)
				t.accumOwn(b, g)
			}
		}
	}
	return v
}

// Scale returns a*s for scalar s.
func (t *Tape) Scale(a *Variable, s float32) *Variable {
	out := t.ws.GetDirty(a.Value.Shape()...)
	tensor.ScaleInto(out, a.Value, s)
	v := t.node(out, a)
	if v.requiresGrad {
		v.backward = func() {
			g := t.ws.GetDirty(v.Grad.Shape()...)
			tensor.ScaleInto(g, v.Grad, s)
			t.accumOwn(a, g)
		}
	}
	return v
}

// ReLU returns max(a, 0).
func (t *Tape) ReLU(a *Variable) *Variable {
	out := t.ws.GetDirty(a.Value.Shape()...)
	tensor.ReLUInto(out, a.Value)
	v := t.node(out, a)
	if v.requiresGrad {
		v.backward = func() {
			g := t.ws.GetDirty(v.Grad.Shape()...)
			tensor.ReLUGradInto(g, a.Value, v.Grad)
			t.accumOwn(a, g)
		}
	}
	return v
}

// MatMul returns a×b for rank-2 variables.
func (t *Tape) MatMul(a, b *Variable) *Variable {
	if a.Value.Rank() != 2 || b.Value.Rank() != 2 {
		panic(fmt.Sprintf("autodiff: MatMul requires rank-2 tensors, got %v × %v", a.Value.Shape(), b.Value.Shape()))
	}
	out := t.ws.GetDirty(a.Value.Dim(0), b.Value.Dim(1))
	tensor.MatMulInto(out, a.Value, b.Value, false)
	v := t.node(out, a, b)
	if v.requiresGrad {
		v.backward = func() {
			if a.requiresGrad {
				// dA = gy × Bᵀ
				g := t.ws.GetDirty(a.Value.Shape()...)
				tensor.MatMulABTInto(g, v.Grad, b.Value)
				t.accumOwn(a, g)
			}
			if b.requiresGrad {
				// dB = Aᵀ × gy
				g := t.ws.GetDirty(b.Value.Shape()...)
				tensor.MatMulATBInto(g, a.Value, v.Grad, false)
				t.accumOwn(b, g)
			}
		}
	}
	return v
}

// Conv2D applies a convolution with weight w [OC,C,KH,KW] and optional bias
// bias (nil allowed) under spec s. When the input x does not require
// gradients (frozen prefix output), the backward pass skips the expensive
// col2im input-gradient computation entirely.
func (t *Tape) Conv2D(x, w, bias *Variable, s tensor.ConvSpec) *Variable {
	var bt *tensor.Tensor
	if bias != nil {
		bt = bias.Value
	}
	out := tensor.Conv2DWS(t.ws, x.Value, w.Value, bt, s)
	var v *Variable
	if bias != nil {
		v = t.node(out, x, w, bias)
	} else {
		v = t.node(out, x, w)
	}
	if v.requiresGrad {
		v.backward = func() {
			dx, dw, db := tensor.Conv2DBackwardWS(t.ws, x.Value, w.Value, v.Grad, s, x.requiresGrad)
			if x.requiresGrad {
				t.accumOwn(x, dx)
			}
			if w.requiresGrad {
				t.accumOwn(w, dw)
			}
			if bias != nil && bias.requiresGrad {
				t.accumOwn(bias, db)
			}
		}
	}
	return v
}

// Upsample2x doubles spatial dimensions by nearest neighbour.
func (t *Tape) Upsample2x(a *Variable) *Variable {
	out := tensor.UpsampleNearest2xWS(t.ws, a.Value)
	v := t.node(out, a)
	if v.requiresGrad {
		v.backward = func() {
			t.accumOwn(a, tensor.UpsampleNearest2xBackwardWS(t.ws, v.Grad))
		}
	}
	return v
}

// Concat stacks CHW variables along channels.
func (t *Tape) Concat(xs ...*Variable) *Variable {
	vals := make([]*tensor.Tensor, len(xs))
	chans := make([]int, len(xs))
	for i, x := range xs {
		vals[i] = x.Value
		chans[i] = x.Value.Dim(0)
	}
	out := tensor.ConcatWS(t.ws, vals...)
	v := t.node(out, xs...)
	if v.requiresGrad {
		v.backward = func() {
			parts := tensor.SplitChannelsWS(t.ws, v.Grad, chans)
			for i, x := range xs {
				t.accumOwn(x, parts[i])
			}
		}
	}
	return v
}

// BatchNorm applies per-channel normalisation with learnable gamma/beta to a
// CHW input, using the given running statistics in inference mode or batch
// statistics in training mode (updating running stats with momentum).
// The returned closure-backed node differentiates through the batch
// statistics when training.
func (t *Tape) BatchNorm(x, gamma, beta *Variable, runMean, runVar *tensor.Tensor, training bool, momentum, eps float32) *Variable {
	c, h, w := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	hw := h * w
	meanT := t.ws.GetDirty(c)
	varT := t.ws.GetDirty(c)
	invStdT := t.ws.GetDirty(c)
	mean, varc, invStd := meanT.Data, varT.Data, invStdT.Data
	if training {
		for ch := 0; ch < c; ch++ {
			seg := x.Value.Data[ch*hw : (ch+1)*hw]
			var m float64
			for _, v := range seg {
				m += float64(v)
			}
			m /= float64(hw)
			var vv float64
			for _, v := range seg {
				d := float64(v) - m
				vv += d * d
			}
			vv /= float64(hw)
			mean[ch] = float32(m)
			varc[ch] = float32(vv)
			runMean.Data[ch] = (1-momentum)*runMean.Data[ch] + momentum*mean[ch]
			runVar.Data[ch] = (1-momentum)*runVar.Data[ch] + momentum*varc[ch]
		}
	} else {
		copy(mean, runMean.Data)
		copy(varc, runVar.Data)
	}
	for ch := 0; ch < c; ch++ {
		invStd[ch] = 1 / sqrt32(varc[ch]+eps)
	}
	out := t.ws.GetDirty(c, h, w)
	// Only the backward closure reads xhat and the statistics: a pass that
	// needs no gradient writes xhat through out and returns the rest.
	xhat := out
	if x.requiresGrad || gamma.requiresGrad || beta.requiresGrad {
		xhat = t.ws.GetDirty(c, h, w)
	}
	for ch := 0; ch < c; ch++ {
		g, b := gamma.Value.Data[ch], beta.Value.Data[ch]
		m, is := mean[ch], invStd[ch]
		xs := x.Value.Data[ch*hw : (ch+1)*hw]
		hs := xhat.Data[ch*hw : (ch+1)*hw]
		os := out.Data[ch*hw : (ch+1)*hw]
		for i, v := range xs {
			xh := (v - m) * is
			hs[i] = xh
			os[i] = g*xh + b
		}
	}
	v := t.node(out, x, gamma, beta)
	if !v.requiresGrad {
		t.ws.Put(invStdT)
		t.ws.Put(varT)
		t.ws.Put(meanT)
	} else {
		v.backward = func() {
			gy := v.Grad
			// dGamma, dBeta
			if gamma.requiresGrad || beta.requiresGrad {
				dg := t.ws.GetDirty(c)
				db := t.ws.GetDirty(c)
				for ch := 0; ch < c; ch++ {
					gs := gy.Data[ch*hw : (ch+1)*hw]
					hs := xhat.Data[ch*hw : (ch+1)*hw]
					var sg, sb float64
					for i, g := range gs {
						sg += float64(g) * float64(hs[i])
						sb += float64(g)
					}
					dg.Data[ch] = float32(sg)
					db.Data[ch] = float32(sb)
				}
				t.accumOwn(gamma, dg)
				t.accumOwn(beta, db)
			}
			if x.requiresGrad {
				dx := t.ws.GetDirty(c, h, w)
				n := float32(hw)
				for ch := 0; ch < c; ch++ {
					g := gamma.Value.Data[ch]
					is := invStd[ch]
					gs := gy.Data[ch*hw : (ch+1)*hw]
					hs := xhat.Data[ch*hw : (ch+1)*hw]
					ds := dx.Data[ch*hw : (ch+1)*hw]
					if training {
						var sumG, sumGX float64
						for i, gv := range gs {
							sumG += float64(gv)
							sumGX += float64(gv) * float64(hs[i])
						}
						sg := float32(sumG)
						sgx := float32(sumGX)
						for i, gv := range gs {
							ds[i] = g * is / n * (n*gv - sg - hs[i]*sgx)
						}
					} else {
						for i, gv := range gs {
							ds[i] = g * is * gv
						}
					}
				}
				t.accumOwn(x, dx)
			}
		}
	}
	return v
}

// SumScalar reduces a variable to a 1-element tensor holding the sum of all
// entries. Used as the terminal loss node.
func (t *Tape) SumScalar(a *Variable) *Variable {
	out := t.ws.GetDirty(1)
	out.Data[0] = float32(a.Value.Sum())
	v := t.node(out, a)
	if v.requiresGrad {
		v.backward = func() {
			g := t.ws.GetDirty(a.Value.Shape()...)
			g.Fill(v.Grad.Data[0])
			t.accumOwn(a, g)
		}
	}
	return v
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}
