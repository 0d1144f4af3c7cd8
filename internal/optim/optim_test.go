package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// quadratic loss f(x) = Σ (x_i - target)² with gradient 2(x - target).
func quadGrad(x *tensor.Tensor, target float32) *tensor.Tensor {
	g := tensor.New(x.Shape()...)
	for i := range x.Data {
		g.Data[i] = 2 * (x.Data[i] - target)
	}
	return g
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	x := tensor.Full(5, 4)
	opt := NewSGD(0.1, 0)
	for i := 0; i < 100; i++ {
		opt.Step([]Param{{Name: "x", Value: x, Grad: quadGrad(x, 2)}})
	}
	for _, v := range x.Data {
		if math.Abs(float64(v)-2) > 1e-3 {
			t.Fatalf("SGD did not converge: %v", x.Data)
		}
	}
}

func TestSGDMomentumFasterThanPlain(t *testing.T) {
	lossAfter := func(momentum float32, steps int) float64 {
		x := tensor.Full(5, 1)
		opt := NewSGD(0.02, momentum)
		for i := 0; i < steps; i++ {
			opt.Step([]Param{{Name: "x", Value: x, Grad: quadGrad(x, 0)}})
		}
		return math.Abs(float64(x.Data[0]))
	}
	if lossAfter(0.9, 25) >= lossAfter(0, 25) {
		t.Fatal("momentum should accelerate convergence on a smooth quadratic")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	x := tensor.Full(-3, 4)
	opt := NewAdam(0.1)
	for i := 0; i < 300; i++ {
		opt.Step([]Param{{Name: "x", Value: x, Grad: quadGrad(x, 1)}})
	}
	for _, v := range x.Data {
		if math.Abs(float64(v)-1) > 1e-2 {
			t.Fatalf("Adam did not converge: %v", x.Data)
		}
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first Adam step is ≈ lr × sign(grad).
	x := tensor.Full(0, 1)
	opt := NewAdam(0.01)
	g := tensor.Full(3, 1)
	opt.Step([]Param{{Name: "x", Value: x, Grad: g}})
	if math.Abs(float64(x.Data[0])+0.01) > 1e-4 {
		t.Fatalf("first Adam step = %v, want ≈ -0.01", x.Data[0])
	}
}

// TestAdamStepMatchesScalarLoop pins Adam.Step, which runs on
// tensor.AdamStep's kernel, to the textbook per-element loop in Go float32
// bit for bit, over eight steps of two parameters of ragged sizes with a
// nil-gradient parameter in between.
func TestAdamStepMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	opt := NewAdam(0.01)
	sizes := []int{1203, 37}
	vals, wantVals := make([]*tensor.Tensor, len(sizes)), make([][]float32, len(sizes))
	wantM, wantV := make([][]float32, len(sizes)), make([][]float32, len(sizes))
	for i, n := range sizes {
		vals[i] = tensor.New(n)
		for j := range vals[i].Data {
			vals[i].Data[j] = float32(rng.NormFloat64())
		}
		wantVals[i] = append([]float32(nil), vals[i].Data...)
		wantM[i], wantV[i] = make([]float32, n), make([]float32, n)
	}
	frozen := tensor.Full(3, 5)
	b1, b2, lr, eps := opt.Beta1, opt.Beta2, opt.LR, opt.Epsilon
	for step := 1; step <= 8; step++ {
		params := []Param{{Name: "frozen", Value: frozen}}
		for i, n := range sizes {
			g := tensor.New(n)
			for j := range g.Data {
				g.Data[j] = float32(rng.NormFloat64() * 0.1)
			}
			params = append(params, Param{Name: string(rune('a' + i)), Value: vals[i], Grad: g})
		}
		opt.Step(params)
		bc1 := 1 - float32(math.Pow(float64(b1), float64(step)))
		bc2 := 1 - float32(math.Pow(float64(b2), float64(step)))
		for i := range sizes {
			p, m, v, g := wantVals[i], wantM[i], wantV[i], params[i+1].Grad.Data
			for j := range p {
				m[j] = b1*m[j] + (1-b1)*g[j]
				v[j] = b2*v[j] + (1-b2)*g[j]*g[j]
				mhat := m[j] / bc1
				vhat := v[j] / bc2
				p[j] -= lr * mhat / (float32(math.Sqrt(float64(vhat))) + eps)
			}
			for j, w := range p {
				if math.Float32bits(vals[i].Data[j]) != math.Float32bits(w) {
					t.Fatalf("step %d, param %d[%d] = %v, the scalar loop gives %v", step, i, j, vals[i].Data[j], w)
				}
			}
		}
	}
	if frozen.Data[0] != 3 {
		t.Fatal("nil gradient must leave the parameter untouched")
	}
}

func TestNilGradSkipped(t *testing.T) {
	x := tensor.Full(1, 2)
	for _, opt := range []Optimizer{NewSGD(0.5, 0.9), NewAdam(0.5)} {
		opt.Step([]Param{{Name: "x", Value: x, Grad: nil}})
		if x.Data[0] != 1 {
			t.Fatal("nil gradient must leave the parameter untouched")
		}
	}
}

func TestResetClearsState(t *testing.T) {
	x := tensor.Full(1, 1)
	a := NewAdam(0.1)
	a.Step([]Param{{Name: "x", Value: x, Grad: tensor.Full(1, 1)}})
	if len(a.m) != 1 || len(a.v) != 1 {
		t.Fatalf("moment state for %d/%d parameters, want 1", len(a.m), len(a.v))
	}
	a.Reset()
	if len(a.m) != 0 || len(a.v) != 0 {
		t.Fatal("Reset must clear Adam state")
	}
	s := NewSGD(0.1, 0.9)
	s.Step([]Param{{Name: "x", Value: x, Grad: tensor.Full(1, 1)}})
	s.Reset()
	if len(s.velocity) != 0 {
		t.Fatal("Reset must clear SGD velocity")
	}
}

func TestGradClipScalesDown(t *testing.T) {
	g1 := tensor.Full(3, 4) // norm 6
	g2 := tensor.Full(4, 4) // norm 8; global norm 10
	params := []Param{
		{Name: "a", Value: tensor.New(4), Grad: g1},
		{Name: "b", Value: tensor.New(4), Grad: g2},
	}
	pre := GradClip(params, 5)
	if math.Abs(pre-10) > 1e-6 {
		t.Fatalf("pre-clip norm = %v, want 10", pre)
	}
	var total float64
	for _, p := range params {
		n := p.Grad.L2Norm()
		total += n * n
	}
	if math.Abs(math.Sqrt(total)-5) > 1e-4 {
		t.Fatalf("post-clip norm = %v, want 5", math.Sqrt(total))
	}
}

func TestGradClipNoopWhenSmall(t *testing.T) {
	g := tensor.Full(1, 2)
	GradClip([]Param{{Name: "a", Value: tensor.New(2), Grad: g}}, 100)
	if g.Data[0] != 1 {
		t.Fatal("clip must not rescale small gradients")
	}
}

// Property: after GradClip the global norm never exceeds the cap.
func TestQuickGradClipBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		g := tensor.New(n)
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64() * 10)
		}
		params := []Param{{Name: "x", Value: tensor.New(n), Grad: g}}
		cap := 0.1 + rng.Float64()*5
		GradClip(params, cap)
		return g.L2Norm() <= cap*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: one SGD step moves each coordinate opposite to its gradient.
func TestQuickSGDDescentDirection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		x := tensor.New(n)
		g := tensor.New(n)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
			g.Data[i] = float32(rng.NormFloat64())
		}
		before := x.Clone()
		NewSGD(0.1, 0).Step([]Param{{Name: "x", Value: x, Grad: g}})
		for i := range x.Data {
			moved := float64(x.Data[i] - before.Data[i])
			if g.Data[i] != 0 && moved*float64(g.Data[i]) > 0 {
				return false // moved with the gradient: ascent, not descent
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
