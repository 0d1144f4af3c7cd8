package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/video"
)

// ablationStream is the stream all ablations run on: moving/street, the
// most demanding category, where design differences are most visible.
var ablationStream = video.Category{Camera: video.Moving, Scenery: video.Street}

func (s *Suite) ablationSource() (video.Source, error) {
	return s.streamSource(ablationStream.String(), 0)
}

// StrideRow is one striding policy's outcome: accuracy, key-frame cost and
// retimed throughput.
type StrideRow struct {
	Policy                      string
	MeanIoU, KeyFrameRatio, FPS float64
}

// StrideRows renders as the striding-policy ablation table.
type StrideRows []StrideRow

func (rows StrideRows) Table() *stats.Table {
	t := stats.NewTable("Ablation: key-frame striding policy (moving/street)",
		"Policy", "mIoU", "Key frame %", "FPS")
	for _, r := range rows {
		t.AddRowf(r.Policy, r.MeanIoU*100, r.KeyFrameRatio*100, r.FPS)
	}
	return t
}

// AblationStride compares Algorithm 2 against the §4.1.5 rejected designs:
// fixed strides (8 and 64) and exponential back-off. Rows report accuracy,
// key-frame cost and throughput so the trade-off is visible.
func (s *Suite) AblationStride() (StrideRows, error) {
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
	var rows StrideRows
	for _, p := range policies {
		src, err := s.ablationSource()
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
		tch, eval := s.teachers()
		res, err := core.Simulate(sc, src, tch, eval, student)
		if err != nil {
			return nil, err
		}
		rc := core.RetimeConfig{Cfg: cfg, Link: netsim.DefaultLink(), Concurrency: core.FullConcurrency}
		fps := core.RetimeFPS(rc, res.Schedule, res.Frames, true)
		rows = append(rows, StrideRow{p.name, res.MeanIoU, res.KeyFrameRatio(), fps})
	}
	return rows, nil
}

// AsyncRow is one update mode's retimed FPS at each of Figure4Bandwidths.
type AsyncRow struct {
	Mode string
	FPS  []float64
}

// AsyncRows renders as the async-vs-blocking ablation table.
type AsyncRows []AsyncRow

func (rows AsyncRows) Table() *stats.Table {
	t := stats.NewTable("Ablation: asynchronous vs blocking update (moving/street)",
		append([]string{"Mode"}, BandwidthLabels()...)...)
	for _, r := range rows {
		cells := []any{r.Mode}
		for _, fps := range r.FPS {
			cells = append(cells, fps)
		}
		t.AddRowf(cells...)
	}
	return t
}

// AblationAsync disables asynchronous inference (the client blocks for the
// whole round trip on every key frame) and sweeps bandwidth, showing that
// the Figure 4 robustness comes from async — with blocking the curve decays
// like naive offloading's.
func (s *Suite) AblationAsync() (AsyncRows, error) {
	src, err := s.ablationSource()
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
	tch, eval := s.teachers()
	res, err := core.Simulate(sc, src, tch, eval, student)
	if err != nil {
		return nil, err
	}
	var rows AsyncRows
	for _, conc := range []core.Concurrency{core.FullConcurrency, core.NoConcurrency} {
		row := AsyncRow{Mode: "async (paper)"}
		if conc == core.NoConcurrency {
			row.Mode = "blocking"
		}
		for _, bw := range Figure4Bandwidths {
			rc := core.RetimeConfig{
				Cfg:         cfg,
				Link:        netsim.Link{Bandwidth: bw, RTTBase: 5 * time.Millisecond},
				Concurrency: conc,
			}
			row.FPS = append(row.FPS, core.RetimeFPS(rc, res.Schedule, res.Frames, true))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FreezeRow is one freeze point's outcome: how much of the network still
// trains, accuracy, and mean distillation steps per key frame.
type FreezeRow struct {
	FrozenThrough                    string
	TrainablePct, MeanIoU, MeanSteps float64
}

// FreezeRows renders as the freeze-point ablation table.
type FreezeRows []FreezeRow

func (rows FreezeRows) Table() *stats.Table {
	t := stats.NewTable("Ablation: freeze point (moving/street)",
		"Frozen through", "Trainable %", "mIoU", "Mean steps")
	for _, r := range rows {
		t.AddRowf(r.FrozenThrough, r.TrainablePct, r.MeanIoU*100, r.MeanSteps)
	}
	return t
}

// AblationFreezePoint sweeps where partial distillation cuts the network:
// nothing frozen (full), through SB2, through SB4 (the paper's choice) and
// everything-but-head.
func (s *Suite) AblationFreezePoint() (FreezeRows, error) {
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
	var rows FreezeRows
	for _, cut := range cuts {
		src, err := s.ablationSource()
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
		// Simulate would train the paper's cut; this trains cut.prefixes.
		tch, eval := s.teachers()
		res, err := core.SimulateCustomFreeze(sc, src, tch, eval, student, cut.prefixes)
		if err != nil {
			return nil, err
		}
		frac := 100.0
		if cut.prefixes != nil {
			frac = trainableFracWithCut(student, cut.prefixes) * 100
		}
		rows = append(rows, FreezeRow{cut.name, frac, res.MeanIoU, meanSteps(res)})
	}
	return rows, nil
}

// meanSteps is a run's distillation steps per key frame.
func meanSteps(res core.SimResult) float64 {
	if res.KeyFrames == 0 {
		return 0
	}
	return float64(res.DistillSteps) / float64(res.KeyFrames)
}

func trainableFracWithCut(st *nn.Student, prefixes []string) float64 {
	st.Params.FreezePrefix(prefixes...)
	return st.Params.TrainableFraction()
}

// LossRow is one loss weighting's outcome.
type LossRow struct {
	Loss               string
	MeanIoU, MeanSteps float64
}

// LossRows renders as the loss-weighting ablation table.
type LossRows []LossRow

func (rows LossRows) Table() *stats.Table {
	t := stats.NewTable("Ablation: loss weighting (moving/street)",
		"Loss", "mIoU", "Mean steps")
	for _, r := range rows {
		t.AddRowf(r.Loss, r.MeanIoU*100, r.MeanSteps)
	}
	return t
}

// AblationLossWeighting compares the LVS ×5 object weighting (§5.2) against
// uniform cross-entropy on a street stream, where background dominance is
// worst.
func (s *Suite) AblationLossWeighting() (LossRows, error) {
	var rows LossRows
	for _, weighted := range []bool{true, false} {
		src, err := s.ablationSource()
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
		tch, eval := s.teachers()
		res, err := core.Simulate(sc, src, tch, eval, student)
		if err != nil {
			return nil, err
		}
		name := "×5 object weighting (paper)"
		if !weighted {
			name = "uniform cross-entropy"
		}
		rows = append(rows, LossRow{name, res.MeanIoU, meanSteps(res)})
	}
	return rows, nil
}
