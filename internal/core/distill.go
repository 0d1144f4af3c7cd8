package core

import (
	"time"

	"repro/internal/loss"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/video"
)

// Distiller owns the server-side copy of the student and trains it on key
// frames against teacher pseudo-labels (Algorithm 1).
type Distiller struct {
	Cfg     Config
	Student *nn.Student
	Opt     optim.Optimizer

	// Measured per-process distillation statistics (feeds Table 2).
	TotalSteps    int
	TotalTrains   int
	TotalStepTime time.Duration

	// Reusable hot-loop state: the training pass context (tape + workspace),
	// loss buffers, optimizer parameter list, metric scratch and the
	// best-weights snapshot. All are lazily sized and recycled across Train
	// calls so a steady-state distillation step allocates almost nothing.
	trainCtx   *nn.ForwardCtx
	gradBuf    *tensor.Tensor
	weightsBuf []float32
	optBuf     []optim.Param
	evalCM     *metrics.ConfusionMatrix
	best       subsetSnapshot
}

// subsetSnapshot is a reusable copy of one parameter set's
// nn.TrainableSubset — what a key frame's training can change, and so what
// a best-weights restore needs. The copy's name set is rebuilt only when the
// freeze configuration changed since the last take.
type subsetSnapshot struct {
	set *nn.ParamSet
	sig int
}

// take copies ps's current trainable subset into the snapshot and returns
// it; the result is valid until the next take.
func (s *subsetSnapshot) take(ps *nn.ParamSet) *nn.ParamSet {
	if sig := ps.NumTrainable(); s.set == nil || sig != s.sig {
		s.set, s.sig = nn.CloneNamed(nn.TrainableSubset(ps)), sig
	} else {
		s.set.ApplyValues(ps)
	}
	return s.set
}

// NewDistiller wraps student with a fresh Adam optimizer under cfg (see
// SetConfig).
func NewDistiller(cfg Config, student *nn.Student) *Distiller {
	d := &Distiller{Student: student, Opt: optim.NewAdam(cfg.LearningRate),
		trainCtx: nn.NewForwardCtxWS(true, tensor.NewWorkspace())}
	d.SetConfig(cfg)
	return d
}

// SetConfig applies cfg to the distiller and re-applies the freeze state
// from cfg.Partial. The student's weights, the optimizer — its moments, step
// and learning rate — and the training context are untouched, so a session
// manager moving a parked session to another shard calls it and the next key
// frame trains there as it would have at home.
func (d *Distiller) SetConfig(cfg Config) {
	d.Cfg = cfg
	d.Student.SetPartial(cfg.Partial)
}

// TrainResult reports one Train call.
type TrainResult struct {
	Metric     float64       // best metric achieved (mIoU against the pseudo-label)
	Steps      int           // distillation steps actually taken
	StepTime   time.Duration // total wall time spent in optimization steps
	SkippedOpt bool          // true when the initial metric already cleared THRESHOLD
}

// Train implements Algorithm 1. It evaluates the student on the key frame
// against the pseudo-label; if below THRESHOLD it takes up to MAX_UPDATES
// partial-backward optimization steps, tracking the best-performing weights,
// and stops early once the metric exceeds THRESHOLD. The student ends up
// holding the best weights seen.
//
// The frozen stages of the student run once per call (Student.Prefix); the
// pre-evaluation, every step's training pass and every step's metric pass
// start from their activations. Under full distillation nothing is frozen,
// the prefix is empty and the same loop runs whole passes.
func (d *Distiller) Train(frame video.Frame, label []int32) TrainResult {
	defer d.Student.ReleasePrefix()
	img := frame.Image
	acts := d.Student.Prefix(img)
	pred := d.Student.InferFrom(acts)
	bestMetric := d.meanIoU(pred, label)
	haveBest := false

	res := TrainResult{Metric: bestMetric}
	if bestMetric >= d.Cfg.Threshold {
		// Algorithm 1 line 4: already above THRESHOLD, no optimization.
		res.SkippedOpt = true
		d.TotalTrains++
		return res
	}

	weights := d.pixelWeights(label, img.Dim(1), img.Dim(2))
	start := time.Now()
	for i := 0; i < d.Cfg.MaxUpdates; i++ {
		d.step(acts, label, weights)
		res.Steps++

		pred = d.Student.InferFrom(acts)
		metric := d.meanIoU(pred, label)
		if metric > bestMetric {
			bestMetric = metric
			d.best.take(d.Student.Params)
			haveBest = true
		}
		if metric >= d.Cfg.Threshold {
			break
		}
	}
	res.StepTime = time.Since(start)
	res.Metric = bestMetric
	// Restore the best-performing weights (Algorithm 1 returns
	// best_student, not the last iterate).
	if haveBest {
		d.Student.Params.ApplyValues(d.best.set)
	}
	d.TotalSteps += res.Steps
	d.TotalTrains++
	d.TotalStepTime += res.StepTime
	return res
}

// Step takes one optimization step on frame against label with no metric
// pass and no best-weights tracking: the training step of Train, started
// from Student.Prefix(frame.Image). Pre-training calls it, under full
// distillation, once per sample.
func (d *Distiller) Step(frame video.Frame, label []int32) {
	defer d.Student.ReleasePrefix()
	img := frame.Image
	weights := d.pixelWeights(label, img.Dim(1), img.Dim(2))
	d.step(d.Student.Prefix(img), label, weights)
}

// Footprint returns the bytes the distiller owns — its student's unshared
// parameters (nn.Student.SharePrefix), the optimizer's moments and the best
// snapshot — and how many workspace leases it holds: none between calls.
func (d *Distiller) Footprint() (owned, leased int) {
	for _, p := range d.Student.Params.All() {
		if !p.Shared {
			owned += 4 * p.Value.Len()
		}
	}
	if d.best.set != nil {
		owned += 4 * d.best.set.NumParams()
	}
	return owned + d.Opt.Bytes(), d.trainCtx.Tape.Workspace().Leased() + d.Student.Leased()
}

// pixelWeights returns the loss weighting for label (nil under
// UnweightedLoss), in a buffer reused across calls.
func (d *Distiller) pixelWeights(label []int32, h, w int) []float32 {
	if d.Cfg.UnweightedLoss {
		return nil
	}
	d.weightsBuf = loss.PixelWeightsInto(d.weightsBuf, label, h, w)
	return d.weightsBuf
}

// step is one optimization step from acts: the forward pass of the stages
// left to train, the weighted cross-entropy against label, the backward
// pass, gradient clipping and the optimizer update, all on the reused
// training context and buffers.
func (d *Distiller) step(acts nn.Activations, label []int32, weights []float32) {
	fc := d.trainCtx
	out := d.Student.ForwardFrom(fc, acts)
	if d.gradBuf == nil || !tensor.ShapeEq(d.gradBuf.Shape(), out.Value.Shape()) {
		d.gradBuf = tensor.New(out.Value.Shape()...)
	}
	loss.SoftmaxCrossEntropyInto(d.gradBuf, out.Value, label, weights)
	fc.Tape.Backward(out, d.gradBuf)
	d.optBuf = d.Student.Params.AppendOptimParams(d.optBuf[:0], fc.Vars)
	if d.Cfg.GradClipNorm > 0 {
		optim.GradClip(d.optBuf, d.Cfg.GradClipNorm)
	}
	d.Opt.Step(d.optBuf)
	fc.Reset(true)  // the step's leases go back before it returns
	clear(d.optBuf) // its gradients were the context's leases
}

// meanIoU computes the per-key-frame metric on a reused confusion matrix.
func (d *Distiller) meanIoU(pred, label []int32) float64 {
	if d.evalCM == nil {
		d.evalCM = metrics.NewConfusionMatrix(d.Student.Config.NumClasses)
	}
	d.evalCM.Reset()
	d.evalCM.Add(pred, label)
	return d.evalCM.MeanIoU()
}

// MeanSteps returns the mean number of distillation steps per Train call
// (Table 2's "Mean # of steps").
func (d *Distiller) MeanSteps() float64 {
	if d.TotalTrains == 0 {
		return 0
	}
	return float64(d.TotalSteps) / float64(d.TotalTrains)
}
