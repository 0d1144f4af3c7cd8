package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// Mode selects the system being simulated.
type Mode int

// Simulation modes.
const (
	// ModeShadowTutor runs Algorithms 1–4.
	ModeShadowTutor Mode = iota
	// ModeNaive offloads every frame to the server (the paper's baseline).
	ModeNaive
	// ModeWild runs the pre-trained student alone, no distillation
	// (Table 6's "Wild" column).
	ModeWild
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeShadowTutor:
		return "shadowtutor"
	case ModeNaive:
		return "naive"
	case ModeWild:
		return "wild"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Concurrency describes how much the client can overlap network operations
// with on-device inference (§4.4: a device "may either be able to execute
// student inference and network operations entirely in parallel, or it may
// not support any form of concurrency").
type Concurrency int

// Concurrency levels.
const (
	// FullConcurrency overlaps the network round trip with inference.
	FullConcurrency Concurrency = iota
	// NoConcurrency serialises inference and networking.
	NoConcurrency
)

// SimConfig configures one simulated run.
type SimConfig struct {
	Cfg    Config
	Mode   Mode
	Frames int

	// Link models the client↔server connection for virtual-time transfer
	// delays and traffic accounting.
	Link netsim.Link
	// Latencies are the per-component virtual-time costs; zero-valued
	// fields fall back to the paper's measurements for the config's mode.
	Latencies ComponentLatencies
	// Concurrency is the client's overlap capability.
	Concurrency Concurrency
	// DelayFrames, when > 0, forces the student update to arrive exactly
	// this many frames after its key frame, overriding link timing — the
	// P-1/P-8 protocol of Table 6.
	DelayFrames int
	// NaiveOverheadPerFrame adds fixed client-side cost per naive frame
	// (encode/decode); calibrated so naive FPS lands near the paper's 2.09.
	NaiveOverheadPerFrame time.Duration

	// EvalEvery computes accuracy-vs-teacher every kth frame (1 = every
	// frame, the paper's protocol). Larger values trade fidelity for speed
	// in quick runs.
	EvalEvery int

	// UpdateDelay, when non-nil, adds extra virtual-time delay to the n-th
	// key frame's student update (0-based) on top of the link-derived
	// transfer time — the deterministic twin of a mid-stream connection
	// fault: the severed diff is journaled and replayed after the resume
	// handshake, so it still arrives, late by the recovery cost. Until it
	// lands the link is lost, as in the live client: no key frame goes out,
	// and nothing waits at MIN_STRIDE — a client whose connection just
	// dropped cannot block for a diff it does not know is coming, so it
	// keeps inferring on stale weights until recovery completes (the live
	// harness's stale_frames). Chaos scenarios use this to compute a
	// machine-independent accuracy delta on the simulation clock.
	UpdateDelay func(kfIndex int) time.Duration

	// StridePolicy, when non-nil, replaces Algorithm 2's NextStride for the
	// §4.1.5 ablation (fixed stride, exponential back-off). It receives the
	// current stride and the post-distillation metric and returns the next
	// stride, which the simulator still clamps to [MIN_STRIDE, MAX_STRIDE].
	StridePolicy func(stride, metric float64) float64
}

// FixedStridePolicy always returns n — the Zhu et al. baseline the paper
// rejects in §4.1.5.
func FixedStridePolicy(n int) func(stride, metric float64) float64 {
	return func(_, _ float64) float64 { return float64(n) }
}

// ExponentialBackoffPolicy doubles the stride after a good key frame and
// resets to MIN_STRIDE after a bad one — the Mullapudi et al. scheme the
// paper rejects as non-adaptive (§4.1.5).
func ExponentialBackoffPolicy(cfg Config) func(stride, metric float64) float64 {
	return func(stride, metric float64) float64 {
		if metric >= cfg.Threshold {
			return stride * 2
		}
		return float64(cfg.MinStride)
	}
}

// SimResult aggregates one run's measurements; these feed every table.
type SimResult struct {
	Mode         Mode
	Partial      bool
	Frames       int
	KeyFrames    int
	DistillSteps int

	VirtualTime time.Duration // total execution time on the virtual clock
	BytesUp     int64         // HD-equivalent bytes to server
	BytesDown   int64         // HD-equivalent bytes to client

	MeanIoU     float64       // vs the evaluator's output, averaged over evaluated frames
	StrideTrace []float64     // stride after each key frame
	DistillTime time.Duration // wall time spent distilling (Table 2)

	// Schedule records every key-frame event. Because the client blocks on
	// the pending update at MIN_STRIDE — before any stride decision can be
	// taken — the schedule is independent of link bandwidth, so Retime can
	// replay it under different network conditions (Figure 4) without
	// re-running distillation.
	Schedule []KeyFrameEvent
}

// KeyFrameEvent is one key frame in a run's schedule.
type KeyFrameEvent struct {
	FrameIndex int
	Steps      int     // distillation steps the server took
	Metric     float64 // post-distillation metric
}

// KeyFrameRatio returns key frames / frames (Table 5, %).
func (r SimResult) KeyFrameRatio() float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.KeyFrames) / float64(r.Frames)
}

// validate refuses a run no simulation can take and defaults EvalEvery.
func (sc *SimConfig) validate() error {
	if err := sc.Cfg.Validate(); err != nil {
		return err
	}
	if sc.Frames <= 0 {
		return fmt.Errorf("core: non-positive frame count %d", sc.Frames)
	}
	// A later arrival would land after the next key frame went out, and
	// that key frame's diff is cut against the update it overtook.
	if sc.DelayFrames > sc.Cfg.MinStride {
		return fmt.Errorf("core: DelayFrames %d exceeds MIN_STRIDE %d", sc.DelayFrames, sc.Cfg.MinStride)
	}
	if sc.EvalEvery <= 0 {
		sc.EvalEvery = 1
	}
	return nil
}

// Simulate runs one experiment: it drives the real student and server over
// the video source while accounting time on a virtual clock with the
// configured component latencies. tch labels the key frames the server
// trains on; accuracy is measured against eval's output on every evaluated
// frame, exactly as §6.3 does ("all accuracy values are evaluated against
// the teacher output"). They are two values, as the live Server.Teacher and
// Client.EvalTeacher are, so evaluating never moves a seeded teacher's
// training labels — and with them the key-frame schedule.
func Simulate(sc SimConfig, src video.Source, tch, eval teacher.Teacher, student *nn.Student) (SimResult, error) {
	if err := sc.validate(); err != nil {
		return SimResult{}, err
	}
	switch sc.Mode {
	case ModeNaive:
		return simulateNaive(sc), nil
	case ModeWild:
		return simulateWild(sc, src, eval, student), nil
	default:
		return simulateShadowTutor(sc, src, tch, eval, student, nil)
	}
}

// SimulateCustomFreeze runs a ShadowTutor simulation with an explicit
// freeze cut instead of the paper's through-SB4 partial mode — the
// freeze-point ablation. prefixes nil means full distillation.
func SimulateCustomFreeze(sc SimConfig, src video.Source, tch, eval teacher.Teacher, student *nn.Student, prefixes []string) (SimResult, error) {
	if err := sc.validate(); err != nil {
		return SimResult{}, err
	}
	return simulateShadowTutor(sc, src, tch, eval, student, prefixes)
}

// pendingUpdate models an in-flight student diff; the clock knows when it
// lands.
type pendingUpdate struct {
	arrivesFrame int                   // frame index arrival (DelayFrames mode)
	diff         transport.StudentDiff // decoded, resolved when it lands
	lost         bool                  // faulted in flight (UpdateDelay): the link is down until it lands
}

// simulateShadowTutor runs Algorithms 3 and 4 on the virtual clock. The
// server is a Server driven through Step and Commit, as Loop drives it, and
// the client lands each diff as Client.Run does; student is the client's.
func simulateShadowTutor(sc SimConfig, src video.Source, tch, eval teacher.Teacher, student *nn.Student, freezePrefixes []string) (SimResult, error) {
	cfg := sc.Cfg
	res := SimResult{Mode: sc.Mode, Partial: cfg.Partial}

	// The server trains its own copy. NewServer sets the paper freeze; a
	// custom cut overrides it before the View is taken. The client already
	// holds the student, so the checkpoint only seeds the View.
	srv := NewServer(cfg, student.Clone(), tch)
	if freezePrefixes != nil {
		srv.Distiller.Student.Params.FreezePrefix(freezePrefixes...)
	}
	if _, err := srv.checkpointBody(0); err != nil {
		return SimResult{}, err
	}

	cm := metrics.NewConfusionMatrix(student.Config.NumClasses)
	// All timing is virtual: results depend only on the schedule and the
	// modeled latencies, never on host speed.
	clk := newStrideClock(sc.Link, sc.Latencies, sc.Concurrency, cfg.Partial)
	cad := newCadence(cfg, sc.StridePolicy)
	var pending *pendingUpdate

	for i := 0; i < sc.Frames; i++ {
		frame := src.Next()
		// A faulted update is the live client's lost link: no key frame
		// goes out until it lands.
		if cad.due() && (pending == nil || !pending.lost) {
			// Send key frame (non-blocking, Algorithm 4 line 7–8) and
			// kick off server work.
			res.KeyFrames++
			res.BytesUp += int64(netsim.HDFrameBytes)
			kf := transport.KeyFrame{FrameIndex: uint32(frame.Index), Image: frame.Image, Label: frame.Label, Seq: uint64(res.KeyFrames)}
			r, err := srv.Step(kf)
			if err != nil {
				return SimResult{}, err
			}
			d, err := transport.DecodeStudentDiff(r.Body)
			if err == nil {
				err = srv.Commit(r.Body)
			}
			if err != nil {
				return SimResult{}, err
			}
			tr := r.Train
			res.DistillSteps += tr.Steps
			res.DistillTime += tr.StepTime
			res.BytesDown += int64(clk.diffBytes)
			res.Schedule = append(res.Schedule, KeyFrameEvent{FrameIndex: i, Steps: tr.Steps, Metric: tr.Metric})

			// Under DelayFrames the update's arrival is a frame index and
			// the trip costs the clock nothing.
			var trip, fault time.Duration
			if sc.DelayFrames == 0 {
				trip = clk.roundTrip(tr.Steps)
				if sc.UpdateDelay != nil {
					fault = max(sc.UpdateDelay(res.KeyFrames-1), 0)
				}
			}
			pending = &pendingUpdate{arrivesFrame: i + sc.DelayFrames, diff: d, lost: fault > 0}
			clk.keyFrame(trip + fault)
			cad.sent()
			if pending.lost {
				// The disconnected client has no arrival to wait on and
				// keeps going on stale weights.
				cad.settled()
			}
		}

		// On-device inference of the current frame (key frames included:
		// Algorithm 4 line 12 runs for every frame).
		mask := student.Infer(frame.Image)
		landed := clk.frame(cad.inferred())

		if i%sc.EvalEvery == 0 {
			cm.Add(mask, eval.Infer(frame))
		}

		if pending != nil {
			if sc.DelayFrames > 0 {
				landed = i+1 >= pending.arrivesFrame
			}
			if landed {
				if err := applyDiff(student, &cad, pending.diff); err != nil {
					return SimResult{}, err
				}
				pending = nil
			}
		}
	}
	res.StrideTrace = cad.trace
	res.Frames = sc.Frames
	res.VirtualTime = clk.now
	res.MeanIoU = cm.MeanIoU()
	return res, nil
}

// simulateNaive prices naive offloading: every frame pays the synchronous
// round trip, and the teacher's output is its own reference (§6.3).
func simulateNaive(sc SimConfig) SimResult {
	lat := sc.Latencies
	if lat == (ComponentLatencies{}) {
		lat = PaperLatencies(sc.Cfg.Partial)
	}
	n := int64(sc.Frames)
	return SimResult{
		Mode: ModeNaive, Frames: sc.Frames, KeyFrames: sc.Frames, MeanIoU: 1,
		BytesUp:     n * netsim.HDFrameBytes,
		BytesDown:   n * netsim.HDNaiveResponseBytes,
		VirtualTime: NaiveTime(sc.Link, lat, sc.Frames, sc.NaiveOverheadPerFrame),
	}
}

// simulateWild runs the pre-trained student with no distillation and
// returns its accuracy against the evaluator (Table 6's "Wild" column).
func simulateWild(sc SimConfig, src video.Source, eval teacher.Teacher, student *nn.Student) SimResult {
	clk := newStrideClock(sc.Link, sc.Latencies, sc.Concurrency, sc.Cfg.Partial)
	cm := metrics.NewConfusionMatrix(student.Config.NumClasses)
	for i := 0; i < sc.Frames; i++ {
		frame := src.Next()
		mask := student.Infer(frame.Image)
		clk.frame(false)
		if i%sc.EvalEvery == 0 {
			cm.Add(mask, eval.Infer(frame))
		}
	}
	return SimResult{Mode: ModeWild, Frames: sc.Frames, VirtualTime: clk.now, MeanIoU: cm.MeanIoU()}
}
