package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/loss"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// requireSameStudent fails unless every parameter of got — weights and
// BatchNorm statistics alike — is bit-equal to want's.
func requireSameStudent(t *testing.T, what string, got, want *nn.Student) {
	t.Helper()
	for _, w := range want.Params.All() {
		g := got.Params.Get(w.Name)
		for i, v := range w.Value.Data {
			if math.Float32bits(g.Value.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, w.Name, i, g.Value.Data[i], v)
			}
		}
	}
}

// The client must hold the student the server trained and scored: at
// quiescence under raw diffs every client parameter, statistics included,
// is bit-equal to the server's. Client.Run applies every outstanding diff
// before it returns and the key-frame schedule does not depend on timing,
// so neither does this.
func TestClientHoldsServerStudentAtQuiescence(t *testing.T) {
	for _, partial := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Partial = partial
		cl, srv := runSession(t, cfg, collect(t, 31, 60))
		if cl.Result.KeyFrames < 3 {
			t.Fatalf("partial=%v: only %d key frames", partial, cl.Result.KeyFrames)
		}
		if srv.Distiller.TotalSteps == 0 {
			t.Fatalf("partial=%v: no distillation step ran", partial)
		}
		requireSameStudent(t, map[bool]string{true: "partial", false: "full"}[partial], cl.Student, srv.Distiller.Student)
	}
}

// referenceTrain is Algorithm 1 over whole passes: Student.Infer and
// Student.Forward on the image for every evaluation and step, a fresh
// context per step, and the whole parameter set as the best-weights
// snapshot. Distiller.Train must be indistinguishable from it.
func referenceTrain(cfg Config, s *nn.Student, opt optim.Optimizer, bk tensor.Backend, img *tensor.Tensor, label []int32) (metric float64, steps int) {
	miou := func() float64 {
		pred, _ := s.Infer(img)
		return metrics.MeanIoU(pred, label, s.Config.NumClasses)
	}
	best := miou()
	if best >= cfg.Threshold {
		return best, 0
	}
	weights := loss.PixelWeights(label, img.Dim(1), img.Dim(2))
	var snap *nn.ParamSet
	for steps < cfg.MaxUpdates {
		fc := nn.NewForwardCtxWS(true, tensor.NewWorkspace().SetBackend(bk))
		out := s.Forward(fc, img)
		_, grad := loss.SoftmaxCrossEntropy(out.Value, label, weights)
		fc.Tape.Backward(out, grad)
		params := s.Params.OptimParams(fc.Vars)
		optim.GradClip(params, cfg.GradClipNorm)
		opt.Step(params)
		steps++
		m := miou()
		if m > best {
			best = m
			snap = s.Params.Clone()
		}
		if m >= cfg.Threshold {
			break
		}
	}
	if snap != nil {
		s.Params.CopyValuesFrom(snap)
	}
	return best, steps
}

// Distiller.Train — one Prefix per key frame, suffix-only passes, a
// snapshot of nn.TrainableSubset — returns the Metric and Steps of the
// whole-pass reference and leaves bit-equal weights, over consecutive key
// frames, for every backend and every cut of the freeze-point ablation
// (nil = full distillation, the empty prefix).
func TestTrainMatchesWholePassReference(t *testing.T) {
	cuts := map[string][]string{
		"nothing": nil,
		"in2":     {"in1", "in2"},
		"sb2":     {"in1", "in2", "sb1", "sb2"},
		"sb4":     nn.FreezePrefixes(),
		"sb6":     {"in1", "in2", "sb1", "sb2", "sb3", "sb4", "sb5", "sb6"},
	}
	frames := collect(t, 47, 17)
	for _, backend := range tensor.Backends() {
		bk, err := tensor.BackendByName(backend)
		if err != nil {
			t.Fatal(err)
		}
		for name, cut := range cuts {
			t.Run(backend+"/"+name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Backend = backend
				cfg.Partial = cut != nil
				cfg.MaxUpdates = 4
				d := NewDistiller(cfg, tinyStudent(47))
				d.Student.Params.FreezePrefix(cut...)
				ref := d.Student.Clone()
				refOpt := optim.NewAdam(cfg.LearningRate)
				steps := 0
				for _, f := range []int{0, 8, 16} {
					frame := frames[f]
					got := d.Train(frame, frame.Label)
					metric, n := referenceTrain(cfg, ref, refOpt, bk, frame.Image, frame.Label)
					if got.Metric != metric || got.Steps != n {
						t.Fatalf("frame %d: Train gave metric %v in %d steps, reference %v in %d", f, got.Metric, got.Steps, metric, n)
					}
					requireSameStudent(t, fmt.Sprintf("after frame %d", f), d.Student, ref)
					steps += n
				}
				if steps == 0 {
					t.Fatal("no optimization step ran; the comparison is vacuous")
				}
			})
		}
	}
}
