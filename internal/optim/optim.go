// Package optim provides optimizers that update a set of named parameters
// from their accumulated gradients. The paper distils with Adam at lr 0.01
// (§5.2); SGD is provided for ablations and tests.
package optim

import (
	"math"

	"repro/internal/tensor"
)

// Param couples a parameter tensor with its gradient for one step. Grad may
// be nil (e.g. a frozen parameter), in which case the optimizer skips it.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Optimizer performs in-place updates on parameter values.
type Optimizer interface {
	// Step applies one update. Parameters with nil gradients are skipped.
	Step(params []Param)
	// Reset clears all internal state (moment estimates, step counters).
	Reset()
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float32
	Momentum float32

	velocity map[string]*tensor.Tensor
}

// NewSGD returns an SGD optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: map[string]*tensor.Tensor{}}
}

// Step implements Optimizer.
func (s *SGD) Step(params []Param) {
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		if s.Momentum == 0 {
			tensor.AxpyInto(p.Value, -s.LR, p.Grad)
			continue
		}
		v := s.velocity[p.Name]
		if v == nil {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p.Name] = v
		}
		for i := range v.Data {
			v.Data[i] = s.Momentum*v.Data[i] + p.Grad.Data[i]
			p.Value.Data[i] -= s.LR * v.Data[i]
		}
	}
}

// Reset implements Optimizer.
func (s *SGD) Reset() { s.velocity = map[string]*tensor.Tensor{} }

// Adam implements Kingma & Ba's Adam with bias correction.
type Adam struct {
	LR      float32
	Beta1   float32
	Beta2   float32
	Epsilon float32

	step int
	m    map[string]*tensor.Tensor
	v    map[string]*tensor.Tensor
}

// NewAdam returns Adam with the usual defaults (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: map[string]*tensor.Tensor{}, v: map[string]*tensor.Tensor{}}
}

// Step implements Optimizer. The update runs on tensor.AdamStep, whose
// kernels (AVX2 where available, a scalar loop otherwise) agree bit for bit.
func (a *Adam) Step(params []Param) {
	a.step++
	k := tensor.AdamCoeffs{
		B1: a.Beta1, C1: 1 - a.Beta1,
		B2: a.Beta2, C2: 1 - a.Beta2,
		BC1: 1 - float32(math.Pow(float64(a.Beta1), float64(a.step))),
		BC2: 1 - float32(math.Pow(float64(a.Beta2), float64(a.step))),
		LR:  a.LR, Eps: a.Epsilon,
	}
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		m := a.m[p.Name]
		v := a.v[p.Name]
		if m == nil {
			m = tensor.New(p.Value.Shape()...)
			v = tensor.New(p.Value.Shape()...)
			a.m[p.Name] = m
			a.v[p.Name] = v
		}
		tensor.AdamStep(p.Value.Data, p.Grad.Data, m.Data, v.Data, k)
	}
}

// Reset implements Optimizer.
func (a *Adam) Reset() {
	a.step = 0
	a.m = map[string]*tensor.Tensor{}
	a.v = map[string]*tensor.Tensor{}
}

// GradClip rescales all gradients in place so their global L2 norm is at
// most maxNorm. It returns the pre-clip norm. Gradient explosion on a
// single hard key frame would otherwise destroy the student mid-stream.
func GradClip(params []Param, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		n := p.Grad.L2Norm()
		total += n * n
	}
	total = math.Sqrt(total)
	if total > maxNorm && total > 0 {
		scale := float32(maxNorm / total)
		for _, p := range params {
			if p.Grad == nil {
				continue
			}
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return total
}
