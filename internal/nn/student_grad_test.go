package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/loss"
	"repro/internal/tensor"
)

// microStudent is the smallest config the architecture supports; it keeps
// the end-to-end gradient check affordable.
func microStudent(seed int64) *Student {
	cfg := StudentConfig{
		InChannels: 3, NumClasses: 4,
		Stem1: 2, Stem2: 3,
		B1: 3, B2: 4, B3: 4, B4: 4,
		B5: 3, B6: 3, Head: 3,
	}
	return NewStudent(cfg, rand.New(rand.NewSource(seed)))
}

// crossEntropy is loss.SoftmaxCrossEntropyInto into a fresh gradient tensor.
func crossEntropy(logits *tensor.Tensor, label []int32, weights []float32) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Shape()...)
	return loss.SoftmaxCrossEntropyInto(grad, logits, label, weights), grad
}

// End-to-end gradient check: analytic gradients through the whole student
// (BN in training mode, conv, concat, upsample, residual) against finite
// differences of the real distillation loss.
func TestStudentEndToEndGradient(t *testing.T) { checkStudentEndToEndGradient(t, nil) }

// checkStudentEndToEndGradient is TestStudentEndToEndGradient on bk (see
// gradCtx).
func checkStudentEndToEndGradient(t *testing.T, bk tensor.Backend) {
	rng := rand.New(rand.NewSource(61))
	s := microStudent(61)
	s.Params.UnfreezeAll()
	img := tensor.New(3, 8, 8)
	for i := range img.Data {
		img.Data[i] = float32(rng.Float64())
	}
	label := make([]int32, 64)
	for i := range label {
		label[i] = int32(rng.Intn(4))
	}

	lossOf := func() float64 {
		fc := gradCtx(bk)
		out := s.ForwardFrom(fc, s.input(img))
		l, _ := crossEntropy(out.Value, label, nil)
		return l
	}

	// BatchNorm running stats mutate on every training forward; freeze the
	// comparison by snapshotting and restoring around every evaluation.
	snapshot := s.Params.Clone()
	restore := func() {
		if err := ApplyNamed(s.Params, snapshot.All()); err != nil {
			t.Fatal(err)
		}
	}

	fc := gradCtx(bk)
	out := s.ForwardFrom(fc, s.input(img))
	_, grad := crossEntropy(out.Value, label, nil)
	fc.Tape.Backward(out, grad)
	restore()

	for _, name := range []string{"out3.w", "sb5.c11.w", "sb1.c33.w", "in1.w"} {
		p := s.Params.Get(name)
		v := fc.Vars[name]
		if v == nil || v.Grad == nil {
			t.Fatalf("no gradient recorded for %s", name)
		}
		const eps = 2e-3
		checked := 0
		for _, i := range []int{0, p.Value.Len() / 2} {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			fp := lossOf()
			restore()
			p.Value.Data[i] = orig - eps
			fm := lossOf()
			restore()
			num := (fp - fm) / (2 * eps)
			got := float64(v.Grad.Data[i])
			// Loose tolerance: float32 forward + central differences.
			if math.Abs(num-got) > 0.05*(math.Max(math.Abs(num), math.Abs(got))+0.05) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", name, i, got, num)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("no entries checked for %s", name)
		}
	}
}

// Under partial distillation the frozen prefix must receive no gradients at
// all while the decoder still does.
func TestStudentPartialBackwardPrunes(t *testing.T) { checkStudentPartialBackwardPrunes(t, nil) }

// checkStudentPartialBackwardPrunes is TestStudentPartialBackwardPrunes on
// bk.
func checkStudentPartialBackwardPrunes(t *testing.T, bk tensor.Backend) {
	s := microStudent(62)
	s.SetPartial(true)
	img := tensor.Full(0.4, 3, 8, 8)
	label := make([]int32, 64)

	fc := gradCtx(bk)
	out := s.ForwardFrom(fc, s.input(img))
	_, grad := crossEntropy(out.Value, label, nil)
	ran := fc.Tape.Backward(out, grad)
	if ran == 0 {
		t.Fatal("backward ran no closures")
	}
	for name, v := range fc.Vars {
		p := s.Params.Get(name)
		if p.Frozen && v.Grad != nil {
			t.Fatalf("frozen %s accumulated gradient", name)
		}
	}
	if v := fc.Vars["out3.w"]; v == nil || v.Grad == nil {
		t.Fatal("decoder parameter missing gradient")
	}

	// Full mode must run strictly more backward closures.
	s2 := microStudent(62)
	s2.SetPartial(false)
	fc2 := gradCtx(bk)
	out2 := s2.ForwardFrom(fc2, s2.input(img))
	_, grad2 := crossEntropy(out2.Value, label, nil)
	ranFull := fc2.Tape.Backward(out2, grad2)
	if ranFull <= ran {
		t.Fatalf("full backward (%d closures) must exceed partial (%d)", ranFull, ran)
	}
}
