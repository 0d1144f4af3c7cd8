package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/teacher"
	"repro/internal/video"
)

// ablationStream is the stream all ablations run on: moving/street, the
// most demanding category, where design differences are most visible.
var ablationStream = video.Category{Camera: video.Moving, Scenery: video.Street}

func (s *Suite) ablationSource() (video.Source, teacher.Teacher, error) {
	return s.streamSource(ablationStream.String(), 0)
}

// AblationStride compares Algorithm 2 against the §4.1.5 rejected designs:
// fixed strides (8 and 64) and exponential back-off. Columns report
// accuracy, key-frame cost and throughput so the trade-off is visible.
//
// Column positions are a contract: internal/harness/fold.go converts the
// ablation tables (this one, AblationAsync, AblationFreezePoint,
// AblationLossWeighting) into structured scenario metrics by position, so
// reordering or retyping columns requires updating the fold.
func (s *Suite) AblationStride() (*stats.Table, error) {
	t := stats.NewTable("Ablation: key-frame striding policy (moving/street)",
		"Policy", "mIoU", "Key frame %", "FPS")
	type policy struct {
		name string
		fn   func(stride, metric float64) float64
	}
	cfg := core.DefaultConfig()
	policies := []policy{
		{"adaptive (Algorithm 2)", nil},
		{"fixed-8", core.FixedStridePolicy(8)},
		{"fixed-64", core.FixedStridePolicy(64)},
		{"exp-backoff", core.ExponentialBackoffPolicy(cfg)},
	}
	for _, p := range policies {
		src, tch, err := s.ablationSource()
		if err != nil {
			return nil, err
		}
		student, err := FreshStudentFor(cfg)
		if err != nil {
			return nil, err
		}
		sc := core.SimConfig{
			Cfg: cfg, Mode: core.ModeShadowTutor, Frames: s.Opts.Frames,
			Link: netsim.DefaultLink(), Concurrency: core.FullConcurrency,
			DelayFrames: 1, EvalEvery: s.Opts.EvalEvery, StridePolicy: p.fn,
		}
		res, err := core.Simulate(sc, src, tch, student)
		if err != nil {
			return nil, err
		}
		rc := core.RetimeConfig{Cfg: cfg, Link: netsim.DefaultLink(), Concurrency: core.FullConcurrency}
		fps := core.RetimeFPS(rc, res.Schedule, res.Frames, true)
		t.AddRowf(p.name, res.MeanIoU*100, res.KeyFrameRatio()*100, fps)
	}
	return t, nil
}

// AblationAsync disables asynchronous inference (the client blocks for the
// whole round trip on every key frame) and sweeps bandwidth, showing that
// the Figure 4 robustness comes from async — with blocking the curve decays
// like naive offloading's.
func (s *Suite) AblationAsync() (*stats.Table, error) {
	t := stats.NewTable("Ablation: asynchronous vs blocking update (moving/street)",
		append([]string{"Mode"}, bwHeader()...)...)
	src, tch, err := s.ablationSource()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	student, err := FreshStudentFor(cfg)
	if err != nil {
		return nil, err
	}
	sc := core.SimConfig{
		Cfg: cfg, Mode: core.ModeShadowTutor, Frames: s.Opts.Frames,
		Link: netsim.DefaultLink(), Concurrency: core.FullConcurrency,
		DelayFrames: 1, EvalEvery: s.Opts.EvalEvery,
	}
	res, err := core.Simulate(sc, src, tch, student)
	if err != nil {
		return nil, err
	}
	for _, conc := range []core.Concurrency{core.FullConcurrency, core.NoConcurrency} {
		name := "async (paper)"
		if conc == core.NoConcurrency {
			name = "blocking"
		}
		row := []string{name}
		for _, bw := range Figure4Bandwidths {
			rc := core.RetimeConfig{
				Cfg:         cfg,
				Link:        netsim.Link{Bandwidth: bw, RTTBase: 5 * time.Millisecond},
				Concurrency: conc,
			}
			row = append(row, fmt.Sprintf("%.2f", core.RetimeFPS(rc, res.Schedule, res.Frames, true)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationFreezePoint sweeps where partial distillation cuts the network:
// nothing frozen (full), through SB2, through SB4 (the paper's choice) and
// everything-but-head. Reported: trainable fraction, accuracy, mean steps.
func (s *Suite) AblationFreezePoint() (*stats.Table, error) {
	t := stats.NewTable("Ablation: freeze point (moving/street)",
		"Frozen through", "Trainable %", "mIoU", "Mean steps")
	cuts := []struct {
		name     string
		prefixes []string
	}{
		{"nothing (full)", nil},
		{"in2", []string{"in1", "in2"}},
		{"sb2", []string{"in1", "in2", "sb1", "sb2"}},
		{"sb4 (paper)", nn.FreezePrefixes()},
		{"sb6 (head only)", []string{"in1", "in2", "sb1", "sb2", "sb3", "sb4", "sb5", "sb6"}},
	}
	for _, cut := range cuts {
		src, tch, err := s.ablationSource()
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Partial = cut.prefixes != nil
		student, err := SharedPretrained()
		if err != nil {
			return nil, err
		}
		sc := core.SimConfig{
			Cfg: cfg, Mode: core.ModeShadowTutor, Frames: s.Opts.Frames,
			Link: netsim.DefaultLink(), Concurrency: core.FullConcurrency,
			DelayFrames: 1, EvalEvery: s.Opts.EvalEvery,
		}
		// Simulate calls SetPartial(cfg.Partial) on the student, which
		// would reset the custom cut; mark cfg.Partial to match and restore
		// the cut after SetPartial by wrapping: simplest is a custom-frozen
		// clone through SimulateCustomFreeze.
		res, err := core.SimulateCustomFreeze(sc, src, tch, student, cut.prefixes)
		if err != nil {
			return nil, err
		}
		frac := 100.0
		if cut.prefixes != nil {
			frac = trainableFracWithCut(student, cut.prefixes) * 100
		}
		meanSteps := 0.0
		if res.KeyFrames > 0 {
			meanSteps = float64(res.DistillSteps) / float64(res.KeyFrames)
		}
		t.AddRowf(cut.name, frac, res.MeanIoU*100, meanSteps)
	}
	return t, nil
}

func trainableFracWithCut(st *nn.Student, prefixes []string) float64 {
	st.Params.FreezePrefix(prefixes...)
	return st.Params.TrainableFraction()
}

// AblationLossWeighting compares the LVS ×5 object weighting (§5.2) against
// uniform cross-entropy on a street stream, where background dominance is
// worst.
func (s *Suite) AblationLossWeighting() (*stats.Table, error) {
	t := stats.NewTable("Ablation: loss weighting (moving/street)",
		"Loss", "mIoU", "Mean steps")
	for _, weighted := range []bool{true, false} {
		src, tch, err := s.ablationSource()
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.UnweightedLoss = !weighted
		student, err := FreshStudentFor(cfg)
		if err != nil {
			return nil, err
		}
		sc := core.SimConfig{
			Cfg: cfg, Mode: core.ModeShadowTutor, Frames: s.Opts.Frames,
			Link: netsim.DefaultLink(), Concurrency: core.FullConcurrency,
			DelayFrames: 1, EvalEvery: s.Opts.EvalEvery,
		}
		res, err := core.Simulate(sc, src, tch, student)
		if err != nil {
			return nil, err
		}
		name := "×5 object weighting (paper)"
		if !weighted {
			name = "uniform cross-entropy"
		}
		meanSteps := 0.0
		if res.KeyFrames > 0 {
			meanSteps = float64(res.DistillSteps) / float64(res.KeyFrames)
		}
		t.AddRowf(name, res.MeanIoU*100, meanSteps)
	}
	return t, nil
}
