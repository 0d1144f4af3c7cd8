package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// freezeCuts are the cuts of experiments.AblationFreezePoint with the stage
// boundary each must give Prefix.
var freezeCuts = []struct {
	name     string
	prefixes []string
	depth    int
}{
	{"nothing", nil, 0},
	{"in2", []string{"in1", "in2"}, 2},
	{"sb2", []string{"in1", "in2", "sb1", "sb2"}, 4},
	{"sb4", FreezePrefixes(), 6},
	{"sb6", []string{"in1", "in2", "sb1", "sb2", "sb3", "sb4", "sb5", "sb6"}, 8},
}

// prefixFixture is a micro student whose running statistics are far from
// both their initial values and the frame's batch statistics, so a pass that
// normalises a frozen block with the wrong ones cannot agree by accident.
func prefixFixture(seed int64) (*Student, *tensor.Tensor, []int32) {
	rng := rand.New(rand.NewSource(seed))
	s := microStudent(seed)
	for _, p := range s.Params.All() {
		if IsBNStat(p.Name) {
			for i := range p.Value.Data {
				p.Value.Data[i] = 0.25 + rng.Float32()
			}
		}
	}
	img := tensor.New(3, 16, 16)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	label := make([]int32, 16*16)
	for i := range label {
		label[i] = int32(rng.Intn(s.Config.NumClasses))
	}
	return s, img, label
}

// logitsOf is a whole gradient-free pass of s on img, on a workspace-free
// tape: logits Infer never materialises at full resolution.
func logitsOf(s *Student, img *tensor.Tensor) *tensor.Tensor {
	return s.ForwardFrom(NewForwardCtxWS(false, nil), s.input(img)).Value
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// A training pass started from Prefix is the same pass: logits, every
// gradient, the backward closures that ran and the statistics it moved are
// bit-equal to Forward on the image, on vec and on the reference oracle,
// for every cut the freeze-point ablation uses.
func TestForwardFromPrefixMatchesForward(t *testing.T) {
	for _, b := range []struct {
		name string
		bk   tensor.Backend // nil: vec
	}{{"reference", tensor.Reference}, {"vec", nil}} {
		bk := b.bk
		for _, cut := range freezeCuts {
			t.Run(b.name+"/"+cut.name, func(t *testing.T) {
				split, img, label := prefixFixture(71)
				split.SetBackend(bk)
				split.Params.FreezePrefix(cut.prefixes...)
				whole := split.Clone()

				fcW := NewForwardCtxWS(true, tensor.NewWorkspace().SetBackend(bk))
				outW := whole.ForwardFrom(fcW, whole.input(img))
				_, grad := crossEntropy(outW.Value, label, nil)
				ranW := fcW.Tape.Backward(outW, grad)

				acts := split.Prefix(img)
				if acts.depth != cut.depth {
					t.Fatalf("Prefix stopped after %d stages, want %d", acts.depth, cut.depth)
				}
				fcS := NewForwardCtxWS(true, tensor.NewWorkspace().SetBackend(bk))
				outS := split.ForwardFrom(fcS, acts)
				ranS := fcS.Tape.Backward(outS, grad)

				if !sameBits(outS.Value, outW.Value) {
					t.Fatal("logits differ from the whole pass")
				}
				if ranS != ranW {
					t.Fatalf("backward ran %d closures, whole pass %d", ranS, ranW)
				}
				for _, p := range whole.Params.All() {
					if !sameBits(split.Params.Get(p.Name).Value, p.Value) {
						t.Fatalf("%s differs after the pass", p.Name)
					}
					vW, vS := fcW.Vars[p.Name], fcS.Vars[p.Name]
					if p.Frozen {
						if vS != nil && vS.Grad != nil {
							t.Fatalf("frozen %s received a gradient", p.Name)
						}
						continue
					}
					if vW.Grad == nil || vS == nil || vS.Grad == nil {
						t.Fatalf("trainable %s has no gradient", p.Name)
					}
					if !sameBits(vS.Grad, vW.Grad) {
						t.Fatalf("gradient of %s differs from the whole pass", p.Name)
					}
				}
			})
		}
	}
}

// Frozen means frozen whole: in a training pass a BatchNorm layer with
// frozen gamma and beta normalises with its running statistics and leaves
// them alone, while a layer that still trains uses the batch's and moves
// its own.
func TestFrozenBatchNormIsPure(t *testing.T) {
	s, img, _ := prefixFixture(72)
	s.SetPartial(true)
	before := s.Params.Clone()
	train := NewForwardCtxWS(true, nil)
	outTrain := s.ForwardFrom(train, s.input(img))
	moved := map[string]bool{}
	for _, p := range s.Params.All() {
		if !sameBits(p.Value, before.Get(p.Name).Value) {
			moved[p.Name] = true
		}
	}
	for _, name := range []string{"sb1.bn.rmean", "sb4.bn.rvar"} {
		if moved[name] {
			t.Errorf("%s of a frozen block moved in a training pass", name)
		}
	}
	for _, name := range []string{"sb5.bn.rmean", "sb6.bn.rvar"} {
		if !moved[name] {
			t.Errorf("%s of a training block did not move in a training pass", name)
		}
	}
	// Up to SB4 the training pass and an inference pass are the same
	// function; the first tensor a training block's batch statistics touch
	// is SB5's output.
	s.Params.ApplyValues(before)
	a := s.Prefix(img)
	p := s.run(NewForwardCtxWS(true, nil), s.input(img), a.depth)
	if !sameBits(p.x.Value, a.x) || !sameBits(p.f1.Value, a.f1) || !sameBits(p.f2.Value, a.f2) {
		t.Fatal("frozen stages computed differently in a training pass")
	}
	s.Params.ApplyValues(before)
	if sameBits(logitsOf(s, img), outTrain.Value) {
		t.Fatal("training blocks ignored the batch statistics")
	}
}

// The activations Prefix returns outlive the passes that start from them:
// every Reset of the inference and training contexts recycles those
// contexts' leases, and none of them may be a prefix activation. The
// recycled buffers are re-leased and poisoned between passes, so an
// activation that lived in either workspace would read back as poison.
func TestPrefixSurvivesSuffixResets(t *testing.T) {
	s, img, label := prefixFixture(73)
	s.SetPartial(true)
	before := s.Params.Clone()
	acts := s.Prefix(img)
	want := [3]*tensor.Tensor{acts.x.Clone(), acts.f1.Clone(), acts.f2.Clone()}
	wantMask := slices.Clone(s.InferFrom(acts))
	wantLogits := s.ForwardFrom(NewForwardCtxWS(false, nil), acts).Value

	train := NewForwardCtxWS(true, tensor.NewWorkspace())
	poison := func(ws *tensor.Workspace) {
		ws.Reset()
		for _, a := range want {
			for i := 0; i < 4; i++ {
				ws.GetDirty(a.Shape()...).Fill(float32(math.NaN()))
			}
		}
		ws.Reset()
	}
	for round := 0; round < 3; round++ {
		train.Reset(true)
		out := s.ForwardFrom(train, acts)
		_, grad := crossEntropy(out.Value, label, nil)
		train.Tape.Backward(out, grad)
		poison(train.Tape.Workspace())
		poison(s.inferCtx.Tape.Workspace())
		for i, got := range [3]*tensor.Tensor{acts.x, acts.f1, acts.f2} {
			if !sameBits(got, want[i]) {
				t.Fatalf("round %d: prefix activation %d was overwritten", round, i)
			}
		}
	}
	// With the statistics the training passes moved put back, the pass
	// from the same activations must still give the first answer.
	s.Params.ApplyValues(before)
	if !slices.Equal(s.InferFrom(acts), wantMask) {
		t.Fatal("InferFrom changed its answer after the suffix contexts were recycled")
	}
	if !sameBits(s.ForwardFrom(NewForwardCtxWS(false, nil), acts).Value, wantLogits) {
		t.Fatal("ForwardFrom changed its answer after the suffix contexts were recycled")
	}
}
