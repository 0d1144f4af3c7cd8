package core

// cadence is Algorithm 4's three decisions with no clock and no I/O: a frame
// is a key frame when step = stride, the client waits for the update at
// MIN_STRIDE, and an applied update sets the next stride by Algorithm 2.
// Client.Run drives it with wall time and a connection; Simulate and Retime
// drive it with a strideClock. Callers feed it events in frame order.
type cadence struct {
	cfg    Config
	policy func(stride, metric float64) float64

	stride  float64
	steps   int  // frames inferred since the last key frame
	pending bool // a sent key frame's update is awaited
	trace   []float64
}

// newCadence starts with "step ← stride", so the first frame is a key frame.
// policy nil is Algorithm 2's NextStride; any other policy (the §4.1.5
// ablations) is still clamped to [MIN_STRIDE, MAX_STRIDE].
func newCadence(cfg Config, policy func(stride, metric float64) float64) cadence {
	if policy == nil {
		policy = func(stride, metric float64) float64 { return NextStride(cfg, stride, metric) }
	}
	return cadence{cfg: cfg, policy: policy, stride: float64(cfg.MinStride), steps: cfg.MinStride}
}

// due reports whether this frame is a key frame. Algorithm 4 compares
// step = stride; because stride only changes when an update applies (and
// may shrink mid-flight), ≥ against the rounded stride is the robust form.
// Callers AND it with "connected".
func (c *cadence) due() bool { return c.steps >= int(c.stride+0.5) }

// sent records a key frame on its way (Algorithm 4 lines 7–8).
func (c *cadence) sent() { c.steps, c.pending = 0, true }

// inferred counts one inferred frame and reports whether the client must
// now wait for the pending update (WaitUntilComplete at MIN_STRIDE,
// Algorithm 4 lines 15–17).
func (c *cadence) inferred() (wait bool) {
	c.steps++
	return c.pending && c.steps == c.cfg.MinStride
}

// applied takes an update's metric and the link policy's stride scale (0 or
// 1 for none): policy, clamp, ×scale, clamp. The scale lengthens the stride
// on a struggling link, within the config's stride bounds.
func (c *cadence) applied(metric, scale float64) {
	c.stride = clampStride(c.cfg, c.policy(c.stride, metric))
	if scale > 0 && scale != 1 {
		c.stride = clampStride(c.cfg, c.stride*scale)
	}
	c.trace = append(c.trace, c.stride)
	c.pending = false
}

// settled ends the wait without a stride decision: a duplicate delivery, a
// lost link (nothing can be waited on until it is back), or an update that
// lands in Retime.
func (c *cadence) settled() { c.pending = false }
