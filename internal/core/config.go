// Package core implements ShadowTutor proper: the student-training loop of
// Algorithm 1 (partial knowledge distillation), the adaptive key-frame
// stride of Algorithm 2, and the server/client runtimes of Algorithms 3–4
// including asynchronous application of student updates.
package core

import (
	"fmt"
	"time"
)

// Config carries the algorithmic parameters of §5.3 plus distillation mode.
type Config struct {
	// Threshold is the acceptable student metric (paper: mIoU 0.8, chosen
	// from the Cityscapes state of the art).
	Threshold float64
	// MinStride and MaxStride clamp the key-frame stride (paper: 8 and 64
	// for 25–30 FPS video).
	MinStride int
	MaxStride int
	// MaxUpdates bounds distillation steps per key frame (paper: 8, chosen
	// from the throughput bounds of §4.4).
	MaxUpdates int
	// Partial selects partial distillation (freeze through SB4, §5.2);
	// false trains all parameters (full distillation).
	Partial bool
	// LearningRate for the distillation optimizer (paper: Adam, 0.01).
	LearningRate float32
	// GradClipNorm bounds the global gradient norm per step; 0 disables.
	GradClipNorm float64
	// UnweightedLoss disables the §5.2 ×5 object-proximity loss weighting
	// (ablation only; the paper always weights).
	UnweightedLoss bool
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		Threshold:    0.8,
		MinStride:    8,
		MaxStride:    64,
		MaxUpdates:   8,
		Partial:      true,
		LearningRate: 0.01,
		GradClipNorm: 10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Threshold <= 0 || c.Threshold >= 1 {
		return fmt.Errorf("core: THRESHOLD must be in (0,1), got %v", c.Threshold)
	}
	if c.MinStride < 1 {
		return fmt.Errorf("core: MIN_STRIDE must be ≥ 1, got %d", c.MinStride)
	}
	if c.MaxStride < c.MinStride {
		return fmt.Errorf("core: MAX_STRIDE %d < MIN_STRIDE %d", c.MaxStride, c.MinStride)
	}
	if c.MaxUpdates < 0 {
		return fmt.Errorf("core: MAX_UPDATES must be ≥ 0, got %d", c.MaxUpdates)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("core: learning rate must be positive, got %v", c.LearningRate)
	}
	return nil
}

// NextStride implements Algorithm 2: the ratio of the next stride to the
// current one is a piecewise-linear function of the student metric through
// the points (0,0), (THRESHOLD,1) and (1,2); the result is clamped to
// [MIN_STRIDE, MAX_STRIDE].
func NextStride(cfg Config, stride float64, metric float64) float64 {
	var ratio float64
	if metric < cfg.Threshold {
		ratio = metric / cfg.Threshold
	} else {
		ratio = (metric - 2*cfg.Threshold + 1) / (1 - cfg.Threshold)
	}
	return clampStride(cfg, ratio*stride)
}

// clampStride bounds a stride to [MIN_STRIDE, MAX_STRIDE], the final step
// of Algorithm 2.
func clampStride(cfg Config, stride float64) float64 {
	if stride < float64(cfg.MinStride) {
		return float64(cfg.MinStride)
	}
	if stride > float64(cfg.MaxStride) {
		return float64(cfg.MaxStride)
	}
	return stride
}

// ComponentLatencies is the paper's Table 1 compute block: the latency of
// each compute component, used by the deterministic simulator and the
// analytic bounds. All values are per-occurrence. The network's t_net is
// not here: both price a transfer from its bytes and the link.
type ComponentLatencies struct {
	StudentInference time.Duration // t_si
	DistillStep      time.Duration // t_sd
	TeacherInference time.Duration // t_ti
}

// PaperLatencies returns the compute measurements from §5.3: t_si = 143 ms,
// t_sd = 13 ms (partial) or 18 ms (full), t_ti = 44 ms.
func PaperLatencies(partial bool) ComponentLatencies {
	sd := 18 * time.Millisecond
	if partial {
		sd = 13 * time.Millisecond
	}
	return ComponentLatencies{
		StudentInference: 143 * time.Millisecond,
		DistillStep:      sd,
		TeacherInference: 44 * time.Millisecond,
	}
}
