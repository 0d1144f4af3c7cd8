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
	"repro/internal/transport"
)

// requireSameStudent fails unless every parameter of got — weights and
// BatchNorm statistics alike — is bit-equal to want's.
func requireSameStudent(t *testing.T, what string, got, want *nn.Student) {
	t.Helper()
	requireHolds(t, what, got, want.Params)
}

// requireHolds fails unless got holds every parameter of want bit for bit.
func requireHolds(t *testing.T, what string, got *nn.Student, want *nn.ParamSet) {
	t.Helper()
	for _, w := range want.All() {
		g := got.Params.Get(w.Name)
		for i, v := range w.Value.Data {
			if math.Float32bits(g.Value.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, w.Name, i, g.Value.Data[i], v)
			}
		}
	}
}

// The client must hold what the server says it holds: at quiescence, under
// every codec, every diff relative from the first on, every client
// parameter is bit-equal to the server's student with its View in place of
// the trainable subset — and under bit-exact diffs, or after a codec that
// starts lossy and turns raw, to the server's student itself. Client.Run
// applies every outstanding diff before it returns and the key-frame
// schedule does not depend on timing, so neither does this. The paths that
// need a session manager — a severed diff replayed from the journal,
// cross-shard handoffs — are serve's
// TestClientHoldsServerStudentAfterCutAndReplay and …AcrossHandoff.
func TestClientHoldsServerStudentAtQuiescence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		partial  bool
		codec    string
		rawAfter uint64 // diffs after this Seq go raw (0: never)
		lossy    bool   // the last diff was lossy: the client holds the View, not the student
	}{
		{name: "partial", partial: true},
		{name: "full"},
		{name: "static:raw", partial: true, codec: "raw"},
		{name: "int8 then raw", partial: true, codec: "int8", rawAfter: 2},
		{name: "static:int8", partial: true, codec: "int8", lossy: true},
		{name: "static:prune25", partial: true, codec: "prune25", lossy: true},
	} {
		cfg := DefaultConfig()
		cfg.Partial = tc.partial
		var log relativeLog
		cl, srv := runSessionUnder(t, cfg, collect(t, 31, 80), func(srv *Server) {
			srv.DiffCodec, srv.Observer = tc.codec, &log
			if tc.rawAfter > 0 {
				srv.Observer = rawAfter{&log, srv, tc.rawAfter}
			}
		})
		if cl.Result.KeyFrames < 5 {
			t.Fatalf("%s: only %d key frames", tc.name, cl.Result.KeyFrames)
		}
		if srv.Distiller.TotalSteps == 0 {
			t.Fatalf("%s: no distillation step ran", tc.name)
		}
		for i, rel := range log.sent {
			if !rel {
				t.Fatalf("%s: diff %d went absolute (all: %v)", tc.name, i+1, log.sent)
			}
		}
		held := srv.Distiller.Student.Params.Clone()
		held.ApplyValues(srv.View)
		requireHolds(t, tc.name, cl.Student, held)
		if !tc.lossy {
			requireSameStudent(t, tc.name, cl.Student, srv.Distiller.Student)
		} else if nn.HashParams(srv.View.All()) == nn.HashParams(nn.TrainableSubset(srv.Distiller.Student.Params)) {
			t.Fatalf("%s: the View is the student; the codec lost nothing and the case is vacuous", tc.name)
		}
	}
}

// A client is told nothing about the server's diff codec: every diff names
// it. Against a raw server it holds the server's student
// bit for bit at quiescence; against a static int8 one it holds the
// statistics and the frozen stages bit for bit, and every trainable weight
// within half a step of the grid its last diff's delta was quantised on
// (plus the float rounding of adding the delta back).
func TestClientFollowsAnyPolicyUntold(t *testing.T) {
	for _, codec := range []string{"raw", "int8"} {
		spec := "static:" + codec
		log := &relativeLog{held: tinyStudent(21).Params.Clone()} // the checkpoint the client starts from
		cl, srv := runSessionUnder(t, DefaultConfig(), collect(t, 31, 60), func(srv *Server) {
			srv.DiffCodec, srv.Observer = codec, log
		})
		if cl.Result.KeyFrames < 3 || srv.Distiller.TotalSteps == 0 {
			t.Fatalf("%s: %d key frames, %d steps", spec, cl.Result.KeyFrames, srv.Distiller.TotalSteps)
		}
		if log.err != nil {
			t.Fatal(log.err)
		}
		if codec == "raw" {
			requireSameStudent(t, spec, cl.Student, srv.Distiller.Student)
			continue
		}
		trainable := map[string]bool{}
		for _, p := range nn.TrainableSubset(srv.Distiller.Student.Params) {
			trainable[p.Name] = !nn.IsBNStat(p.Name)
		}
		for _, want := range srv.Distiller.Student.Params.All() {
			got := cl.Student.Params.Get(want.Name).Value.Data
			step := float32(0)
			if trainable[want.Name] {
				ref := log.prev.Get(want.Name).Value.Data
				for i, v := range want.Value.Data {
					step = max(step, v-ref[i], ref[i]-v)
				}
				step /= 127
			}
			for i, v := range want.Value.Data {
				bound := step/2*1.0001 + 3e-7*max(v, -v)
				if d := got[i] - v; d > bound || -d > bound {
					t.Fatalf("%s: %s[%d] = %v on the client, %v on the server", spec, want.Name, i, got[i], v)
				}
			}
		}
	}
}

// rawAfter is a relativeLog that turns srv's diffs raw once the diff
// numbered seq is encoded: a codec change mid-session, which the View must
// absorb.
type rawAfter struct {
	*relativeLog
	srv *Server
	seq uint64
}

func (o rawAfter) Diff(seq uint64, body []byte) {
	o.relativeLog.Diff(seq, body)
	if seq == o.seq {
		o.srv.DiffCodec = "raw"
	}
}

// relativeLog is a SessionObserver recording, per diff sent, whether its
// parameter section was relative. Given held, the checkpoint the client
// starts from, it also applies every diff to it as the client does, and
// keeps in prev what the last one was relative to.
type relativeLog struct {
	nopObserver
	sent       []bool
	held, prev *nn.ParamSet
	err        error
}

func (l *relativeLog) Diff(_ uint64, body []byte) {
	d, err := transport.DecodeStudentDiff(body)
	l.sent = append(l.sent, err == nil && d.Relative)
	if l.held == nil {
		return
	}
	l.prev = l.held.Clone()
	if err == nil {
		err = d.Resolve(l.held)
	}
	if err == nil {
		err = nn.ApplyNamed(l.held, d.Params)
	}
	if err != nil && l.err == nil {
		l.err = err
	}
}

// referenceTrain is Algorithm 1 over whole passes: Student.Infer and
// Student.ForwardFrom the image for every evaluation and step, a fresh
// context per step, and the whole parameter set as the best-weights
// snapshot. Distiller.Train must be indistinguishable from it.
func referenceTrain(cfg Config, s *nn.Student, opt optim.Optimizer, bk tensor.Backend, img *tensor.Tensor, label []int32) (metric float64, steps int) {
	miou := func() float64 {
		pred := s.Infer(img)
		return metrics.MeanIoU(pred, label, s.Config.NumClasses)
	}
	best := miou()
	if best >= cfg.Threshold {
		return best, 0
	}
	weights := loss.PixelWeightsInto(nil, label, img.Dim(1), img.Dim(2))
	// With nothing frozen the prefix is empty: bare's Prefix is the image
	// boundary a whole pass of s starts from.
	bare := s.Clone()
	bare.SetPartial(false)
	input := bare.Prefix(img)
	var snap *nn.ParamSet
	for steps < cfg.MaxUpdates {
		fc := nn.NewForwardCtxWS(true, tensor.NewWorkspace().SetBackend(bk))
		out := s.ForwardFrom(fc, input)
		grad := tensor.New(out.Value.Shape()...)
		loss.SoftmaxCrossEntropyInto(grad, out.Value, label, weights)
		fc.Tape.Backward(out, grad)
		params := s.Params.AppendOptimParams(nil, fc.Vars)
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
		s.Params.ApplyValues(snap)
	}
	return best, steps
}

// Distiller.Train — one Prefix per key frame, suffix-only passes, a
// snapshot of nn.TrainableSubset — returns the Metric and Steps of the
// whole-pass reference and leaves bit-equal weights, over consecutive key
// frames, on vec and on the reference oracle, and for every cut of the
// freeze-point ablation (nil = full distillation, the empty prefix).
func TestTrainMatchesWholePassReference(t *testing.T) {
	cuts := map[string][]string{
		"nothing": nil,
		"in2":     {"in1", "in2"},
		"sb2":     {"in1", "in2", "sb1", "sb2"},
		"sb4":     nn.FreezePrefixes(),
		"sb6":     {"in1", "in2", "sb1", "sb2", "sb3", "sb4", "sb5", "sb6"},
	}
	frames := collect(t, 47, 17)
	for _, b := range []struct {
		name string
		bk   tensor.Backend // nil: vec
	}{{"reference", tensor.Reference}, {"vec", nil}} {
		bk := b.bk
		for name, cut := range cuts {
			t.Run(b.name+"/"+name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Partial = cut != nil
				cfg.MaxUpdates = 4
				d := NewDistiller(cfg, tinyStudent(47))
				// The oracle reaches the distiller through its student and
				// its training workspace.
				d.Student.SetBackend(bk)
				d.trainCtx = nn.NewForwardCtxWS(true, tensor.NewWorkspace().SetBackend(bk))
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
