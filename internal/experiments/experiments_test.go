package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/video"
)

// sharedQuickSuite memoises runs across the whole test binary so the
// distillation-heavy tests don't repeat work.
var sharedQuickSuite = NewSuite(Options{Frames: 150, EvalEvery: 5, Seed: 11})

func quickSuite() *Suite { return sharedQuickSuite }

func TestPretrainProducesFiniteWeights(t *testing.T) {
	st, err := Pretrain(PretrainConfig{Steps: 10, LR: 0.004, Seed: 3, FramesPer: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.Params.All() {
		if !p.Value.AllFinite() {
			t.Fatalf("parameter %s has non-finite values after pre-training", p.Name)
		}
	}
}

func TestSharedPretrainedIsStableAcrossCalls(t *testing.T) {
	a, err := SharedPretrained()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedPretrained()
	if err != nil {
		t.Fatal(err)
	}
	// Both are clones of one checkpoint: identical values, distinct storage.
	pa := a.Params.Get("out3.w")
	pb := b.Params.Get("out3.w")
	for i := range pa.Value.Data {
		if pa.Value.Data[i] != pb.Value.Data[i] {
			t.Fatal("shared checkpoint differs between calls")
		}
	}
	pa.Value.Data[0] = 99
	if pb.Value.Data[0] == 99 {
		t.Fatal("SharedPretrained must return independent clones")
	}
}

func TestFreshStudentForAppliesMode(t *testing.T) {
	cfg := core.DefaultConfig()
	st, err := FreshStudentFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Params.NumTrainable() == st.Params.NumParams() {
		t.Fatal("partial config must freeze parameters")
	}
	cfg.Partial = false
	st2, err := FreshStudentFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Params.NumTrainable() >= st2.Params.NumParams() {
		// BN statistics stay frozen even in full mode.
		t.Log("full mode trainable:", st2.Params.NumTrainable(), "of", st2.Params.NumParams())
	}
}

func TestSuiteRunMemoised(t *testing.T) {
	s := quickSuite()
	key := RunKey{Stream: "fixed/people", Mode: core.ModeShadowTutor, Partial: true, Delay: 1}
	r1, err := s.Run(key)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(key)
	if err != nil {
		t.Fatal(err)
	}
	if r1.KeyFrames != r2.KeyFrames || r1.MeanIoU != r2.MeanIoU {
		t.Fatal("memoised run returned different results")
	}
}

func TestSuiteUnknownStream(t *testing.T) {
	s := quickSuite()
	if _, err := s.Run(RunKey{Stream: "nonexistent"}); err == nil {
		t.Fatal("unknown stream must error")
	}
}

func TestTable4Shapes(t *testing.T) {
	tbl, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"To Server", "To Client", "Total", "2.637"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestBoundsInputsAndReport(t *testing.T) {
	in := BoundsInputs(true, 80)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// §5.3: t_net at 80 Mbps for 2.637+0.395 MB is about 0.3 s.
	if in.TNet.Seconds() < 0.25 || in.TNet.Seconds() > 0.40 {
		t.Fatalf("t_net = %v, expected ≈ 0.3 s", in.TNet)
	}
	rep := BoundsReport().String()
	if !strings.Contains(rep, "MAX_UPDATES") {
		t.Fatalf("bounds report incomplete:\n%s", rep)
	}
}

// The shape test everything hinges on: distillation must beat Wild on the
// same stream, and the schedule must adapt.
func TestShadowTutorBeatsWildQualitatively(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real distillation")
	}
	s := quickSuite()
	cat := video.Category{Camera: video.Fixed, Scenery: video.People}
	wild, err := s.CategoryRun(cat, core.ModeWild, true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.CategoryRun(cat, core.ModeShadowTutor, true, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1.MeanIoU <= wild.MeanIoU {
		t.Fatalf("distilled mIoU %.3f must beat wild %.3f", p1.MeanIoU, wild.MeanIoU)
	}
	if p1.KeyFrames == 0 || p1.KeyFrames == p1.Frames {
		t.Fatalf("key frames %d of %d is degenerate", p1.KeyFrames, p1.Frames)
	}
}

func TestAblationCompressionShapes(t *testing.T) {
	rows, err := AblationCompression()
	if err != nil {
		t.Fatal(err)
	}
	out := rows.Table().String()
	for _, want := range []string{"raw", "int8", "prune25", "prune10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compression ablation missing %q:\n%s", want, out)
		}
	}
	// The raw row must report zero error and ratio 1.00x.
	if !strings.Contains(out, "1.00x") {
		t.Fatalf("raw codec should be the 1.00x baseline:\n%s", out)
	}
}
