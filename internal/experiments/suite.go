package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/teacher"
	"repro/internal/video"
)

// Options scales the whole evaluation. The paper processes the first 5000
// frames of each stream; reduced-frame runs preserve every qualitative
// shape and are the default for tests and benchmarks.
type Options struct {
	Frames    int   // frames per run (paper: 5000)
	EvalEvery int   // accuracy sampling period (1 = paper protocol)
	Seed      int64 // master seed; per-stream seeds derive from it
}

// DefaultOptions returns the paper-fidelity settings.
func DefaultOptions() Options { return Options{Frames: 5000, EvalEvery: 1, Seed: 11} }

// RunKey identifies one memoised simulation run.
type RunKey struct {
	Stream   string // category string or named video
	Mode     core.Mode
	Partial  bool
	Delay    int // DelayFrames (0 = timing mode; Table 6 uses 1 and 8)
	Resample int // frame stride for §6.5 (0/1 = native FPS)
}

// Suite memoises simulation runs so every table derives from one set of
// executions, mirroring how the paper derives Tables 3, 5 and 6 from the
// same sessions.
type Suite struct {
	Opts Options

	mu   sync.Mutex
	runs map[RunKey]core.SimResult
}

// NewSuite returns an empty suite.
func NewSuite(opts Options) *Suite {
	if opts.Frames <= 0 {
		opts = DefaultOptions()
	}
	if opts.EvalEvery <= 0 {
		opts.EvalEvery = 1
	}
	return &Suite{Opts: opts, runs: map[RunKey]core.SimResult{}}
}

// streamSource builds the video source for a stream name (either a Category
// string or a NamedVideo).
func (s *Suite) streamSource(stream string, resample int) (video.Source, error) {
	var cfg video.Config
	found := false
	for i, cat := range video.Categories {
		if cat.String() == stream {
			cfg = video.CategoryConfig(cat, s.Opts.Seed+int64(i)*101)
			found = true
			break
		}
	}
	if !found {
		var err error
		cfg, err = video.NamedVideo(stream, s.Opts.Seed*7+13)
		if err != nil {
			return nil, fmt.Errorf("experiments: unknown stream %q", stream)
		}
	}
	gen, err := video.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	if resample > 1 {
		return &video.Resampled{G: gen, Stride: resample}, nil
	}
	return gen, nil
}

// teachers returns a run's training teacher and its evaluator: two oracles
// with one seed, as a live session's server teacher and client evaluator
// are, so evaluation never draws from the training labels' noise.
func (s *Suite) teachers() (tch, eval teacher.Teacher) {
	return teacher.NewOracle(s.Opts.Seed + 997), teacher.NewOracle(s.Opts.Seed + 997)
}

// Run executes (or returns the memoised) simulation for key.
func (s *Suite) Run(key RunKey) (core.SimResult, error) {
	s.mu.Lock()
	if r, ok := s.runs[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()

	src, err := s.streamSource(key.Stream, key.Resample)
	if err != nil {
		return core.SimResult{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Partial = key.Partial

	sc := core.SimConfig{
		Cfg:         cfg,
		Mode:        key.Mode,
		Frames:      s.Opts.Frames,
		Link:        netsim.DefaultLink(),
		Concurrency: core.FullConcurrency,
		DelayFrames: key.Delay,
		EvalEvery:   s.Opts.EvalEvery,
	}
	student, err := FreshStudentFor(cfg)
	if err != nil {
		return core.SimResult{}, err
	}
	tch, eval := s.teachers()
	res, err := core.Simulate(sc, src, tch, eval, student)
	if err != nil {
		return core.SimResult{}, err
	}
	s.mu.Lock()
	s.runs[key] = res
	s.mu.Unlock()
	return res, nil
}

// CategoryRun is shorthand for Run on an LVS category.
func (s *Suite) CategoryRun(cat video.Category, mode core.Mode, partial bool, delay, resample int) (core.SimResult, error) {
	return s.Run(RunKey{Stream: cat.String(), Mode: mode, Partial: partial, Delay: delay, Resample: resample})
}
