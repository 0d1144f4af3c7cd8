package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestParamSetAddGetDuplicate(t *testing.T) {
	ps := NewParamSet()
	p := ps.Add("a", tensor.New(2))
	if ps.Get("a") != p {
		t.Fatal("Get must return the registered parameter")
	}
	if ps.Get("missing") != nil {
		t.Fatal("Get of unknown name must be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add must panic")
		}
	}()
	ps.Add("a", tensor.New(2))
}

func TestParamSetCounts(t *testing.T) {
	ps := NewParamSet()
	ps.Add("front.w", tensor.New(2, 3))
	ps.Add("back.w", tensor.New(4))
	if ps.NumParams() != 10 {
		t.Fatalf("NumParams = %d", ps.NumParams())
	}
	n := ps.FreezePrefix("front")
	if n != 1 {
		t.Fatalf("froze %d, want 1", n)
	}
	if ps.NumTrainable() != 4 {
		t.Fatalf("NumTrainable = %d", ps.NumTrainable())
	}
	if f := ps.TrainableFraction(); math.Abs(f-0.4) > 1e-9 {
		t.Fatalf("TrainableFraction = %v", f)
	}
	ps.UnfreezeAll()
	if ps.NumTrainable() != 10 {
		t.Fatal("UnfreezeAll failed")
	}
}

func TestParamSetCloneAndApplyNamed(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", tensor.Full(1, 3))
	c := ps.Clone()
	c.Get("w").Value.Fill(9)
	if ps.Get("w").Value.Data[0] != 1 {
		t.Fatal("Clone must deep-copy values")
	}
	if err := ApplyNamed(ps, c.All()); err != nil || ps.Get("w").Value.Data[0] != 9 {
		t.Fatalf("ApplyNamed failed: %v", err)
	}
}

func TestWriteReadNamedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := NewParamSet()
	w := tensor.New(2, 3, 1, 1)
	InitKaiming(w, rng)
	ps.Add("conv.w", w)
	ps.Add("conv.b", tensor.Full(0.5, 2))

	var buf bytes.Buffer
	if err := WriteNamed(&buf, ps.All()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != EncodedSize(ps.All()) {
		t.Fatalf("EncodedSize = %d, actual %d", EncodedSize(ps.All()), buf.Len())
	}
	got, err := ReadNamed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "conv.w" || got[1].Name != "conv.b" {
		t.Fatalf("bad round trip: %+v", got)
	}
	for i := range w.Data {
		if got[0].Value.Data[i] != w.Data[i] {
			t.Fatal("weight data corrupted")
		}
	}
}

func TestReadNamedRejectsGarbage(t *testing.T) {
	if _, err := ReadNamed(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("implausible count must error")
	}
	if _, err := ReadNamed(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream must error")
	}
}

func TestApplyNamedErrors(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", tensor.New(2))
	if err := ApplyNamed(ps, []*Parameter{{Name: "nope", Value: tensor.New(2)}}); err == nil {
		t.Fatal("unknown name must error")
	}
	if err := ApplyNamed(ps, []*Parameter{{Name: "w", Value: tensor.New(3)}}); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if err := ApplyNamed(ps, []*Parameter{{Name: "w", Value: tensor.Full(2, 2)}}); err != nil {
		t.Fatal(err)
	}
	if ps.Get("w").Value.Data[0] != 2 {
		t.Fatal("ApplyNamed did not copy values")
	}
}

// Property: serialization round-trips arbitrary float payloads bit-exactly.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(vals []float32, name string) bool {
		if len(vals) == 0 || len(name) == 0 || len(name) > 100 {
			return true
		}
		p := &Parameter{Name: name, Value: tensor.FromSlice(vals, len(vals))}
		var buf bytes.Buffer
		if err := WriteNamed(&buf, []*Parameter{p}); err != nil {
			return false
		}
		got, err := ReadNamed(&buf)
		if err != nil || len(got) != 1 || got[0].Name != name {
			return false
		}
		for i := range vals {
			a, b := got[0].Value.Data[i], vals[i]
			if a != b && !(isNaN32(a) && isNaN32(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func isNaN32(f float32) bool { return f != f }

func TestStudentForwardShape(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(3)))
	img := tensor.New(3, 32, 48)
	mask := s.Infer(img)
	logits := logitsOf(s, img)
	if logits.Dim(0) != 9 || logits.Dim(1) != 32 || logits.Dim(2) != 48 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	if len(mask) != 32*48 {
		t.Fatalf("mask len %d", len(mask))
	}
}

// Infer runs out3 at half resolution and upsamples the argmax mask; that
// mask must be the argmax of the full-resolution logits ForwardFrom gives,
// on random images and with two classes tied at every pixel (out3's rows 1
// and 2 copies of row 0, so the first of the tied classes must win), on
// both backends.
func TestInferMaskIsFullResolutionArgmax(t *testing.T) {
	for _, b := range []struct {
		name string
		bk   tensor.Backend // nil: vec
	}{{"reference", tensor.Reference}, {"vec", nil}} {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			s := NewStudent(DefaultStudentConfig(), rng)
			s.SetBackend(b.bk)
			check := func(what string, tied bool) {
				for i, hw := range [][2]int{{64, 96}, {16, 24}, {8, 8}} {
					img := tensor.New(3, hw[0], hw[1])
					for j := range img.Data {
						img.Data[j] = rng.Float32()
					}
					fc := NewForwardCtxWS(false, tensor.NewWorkspace().SetBackend(b.bk))
					want := s.ForwardFrom(fc, s.input(img)).Value.ArgmaxChannel(nil)
					if tied && (!slices.Contains(want, 0) || slices.Contains(want, 1) || slices.Contains(want, 2)) {
						t.Fatalf("image %d: the tie is not exercised", i)
					}
					if !slices.Equal(s.Infer(img), want) {
						t.Fatalf("%s image %d (%dx%d): Infer's mask differs from the full-resolution argmax", what, i, hw[0], hw[1])
					}
					if !slices.Equal(s.InferFrom(s.Prefix(img)), want) {
						t.Fatalf("%s image %d (%dx%d): InferFrom's mask differs from the full-resolution argmax", what, i, hw[0], hw[1])
					}
				}
			}
			check("random", false)
			w, bias := s.Params.Get("out3.w").Value, s.Params.Get("out3.b").Value
			for j := range bias.Data {
				bias.Data[j] = float32(rng.NormFloat64())
			}
			bias.Data[0] = 2 // the tied classes win a share of the pixels
			row := w.Len() / w.Dim(0)
			for _, c := range []int{1, 2} {
				copy(w.Data[c*row:(c+1)*row], w.Data[:row])
				bias.Data[c] = bias.Data[0]
			}
			check("tied", true)
		})
	}
}

func TestStudentRejectsBadSpatialDims(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(4)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-multiple-of-8 input")
		}
	}()
	s.Infer(tensor.New(3, 30, 48))
}

func TestStudentSetPartialFreezesPaperPrefix(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(5)))
	s.SetPartial(true)
	frac := s.Params.TrainableFraction()
	// The paper's freeze-through-SB4 leaves 21.4% trainable; our
	// architecture lands in the same regime.
	if frac < 0.1 || frac > 0.35 {
		t.Fatalf("trainable fraction %v outside the paper regime", frac)
	}
	for _, name := range []string{"in1.w", "sb1.c33.w", "sb4.c11.w"} {
		if p := s.Params.Get(name); p == nil || !p.Frozen {
			t.Fatalf("%s must be frozen under partial distillation", name)
		}
	}
	for _, name := range []string{"sb5.c33.w", "sb6.c11.w", "out3.w"} {
		if p := s.Params.Get(name); p == nil || p.Frozen {
			t.Fatalf("%s must be trainable under partial distillation", name)
		}
	}
	s.SetPartial(false)
	for _, p := range s.Params.All() {
		if p.Frozen && !bnStat(p.Name) {
			t.Fatalf("full distillation left %s frozen", p.Name)
		}
	}
}

func bnStat(name string) bool {
	return strings.HasSuffix(name, ".rmean") || strings.HasSuffix(name, ".rvar")
}

func TestBNStatsAlwaysFrozen(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(6)))
	for _, partial := range []bool{true, false} {
		s.SetPartial(partial)
		for _, p := range s.Params.All() {
			if bnStat(p.Name) && !p.Frozen {
				t.Fatalf("BN stat %s must never be optimised (partial=%v)", p.Name, partial)
			}
		}
	}
}

func TestStudentCloneIndependent(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(7)))
	c := s.Clone()
	c.Params.Get("out3.w").Value.Fill(42)
	if s.Params.Get("out3.w").Value.Data[0] == 42 {
		t.Fatal("Clone must not share weight storage")
	}
	// Same input → different outputs after the mutation.
	img := tensor.Full(0.5, 3, 16, 16)
	l1, l2 := logitsOf(s, img), logitsOf(c, img)
	same := true
	for i := range l1.Data {
		if l1.Data[i] != l2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("mutated clone produced identical logits")
	}
}

func TestStudentDeterministicForward(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(8)))
	img := tensor.Full(0.3, 3, 16, 16)
	a, b := logitsOf(s, img), logitsOf(s, img)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("inference must be deterministic")
		}
	}
	// The mask is only valid until the next Infer on the same student (it
	// lives in the student's recycled buffer), so snapshot the first.
	mask1 := append([]int32(nil), s.Infer(img)...)
	mask2 := s.Infer(img)
	for i := range mask1 {
		if mask1[i] != mask2[i] {
			t.Fatal("mask must be deterministic")
		}
	}
}

// TrainableSubset is what a diff carries: every trainable parameter plus
// the running statistics of the BatchNorm layers that still train — under
// the paper's cut SB5's and SB6's, 320 floats — and nothing of a frozen
// block.
func TestTrainableSubsetMatchesFreeze(t *testing.T) {
	s := NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(9)))
	s.SetPartial(true)
	sub := TrainableSubset(s.Params)
	stats := 0
	for _, p := range sub {
		switch {
		case bnStat(p.Name):
			if !strings.HasPrefix(p.Name, "sb5.") && !strings.HasPrefix(p.Name, "sb6.") {
				t.Fatalf("TrainableSubset returned %s of a frozen block", p.Name)
			}
			stats += p.Value.Len()
		case p.Frozen:
			t.Fatalf("TrainableSubset returned frozen %s", p.Name)
		}
	}
	trainable := 0
	for _, p := range s.Params.All() {
		if !p.Frozen {
			trainable++
		}
	}
	if len(sub)-4 != trainable || stats != 320 {
		t.Fatalf("subset has %d tensors for %d trainable ones and %d statistic floats, want 4 more and 320",
			len(sub), trainable, stats)
	}
	// The trainable subset must serialize smaller than the full set.
	if EncodedSize(sub) >= EncodedSize(s.Params.All()) {
		t.Fatal("partial diff must be smaller than full checkpoint")
	}
	s.SetPartial(false)
	if got := len(TrainableSubset(s.Params)); got != len(s.Params.All()) {
		t.Fatalf("full distillation ships %d of %d tensors", got, len(s.Params.All()))
	}
}

func TestForwardCtxVarRegisteredOnce(t *testing.T) {
	ps := NewParamSet()
	p := ps.Add("w", tensor.New(1))
	fc := NewForwardCtxWS(true, nil)
	v1 := fc.Var(p)
	v2 := fc.Var(p)
	if v1 != v2 {
		t.Fatal("Var must memoise per pass")
	}
	fc.Tape.Backward(fc.Tape.SumScalar(v1), nil)
	if v1.Grad == nil {
		t.Fatal("trainable param must require grad in training ctx")
	}
	fcEval := NewForwardCtxWS(false, nil)
	vEval := fcEval.Var(p)
	fcEval.Tape.Backward(fcEval.Tape.SumScalar(vEval), nil)
	if vEval.Grad != nil {
		t.Fatal("eval ctx must not require grad")
	}
}

func TestStudentBlockResidualShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ps := NewParamSet()
	b := NewStudentBlock(ps, "blk", 4, 8, 2, rng)
	if b.Proj == nil {
		t.Fatal("channel/stride change requires projection skip")
	}
	fc := NewForwardCtxWS(false, nil)
	x := fc.Tape.Constant(tensor.Full(0.1, 4, 8, 8))
	y := b.Forward(fc, x)
	if y.Value.Dim(0) != 8 || y.Value.Dim(1) != 4 || y.Value.Dim(2) != 4 {
		t.Fatalf("block output shape %v", y.Value.Shape())
	}
	// Identity-skip variant.
	b2 := NewStudentBlock(ps, "blk2", 4, 4, 1, rng)
	if b2.Proj != nil {
		t.Fatal("same-shape block must use identity skip")
	}
}
