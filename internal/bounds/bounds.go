// Package bounds implements the analytic network-traffic and throughput
// models of §4.4 (equations 2–15). All formulae take only algorithm
// parameters, component latency measurements and the per-key-frame data
// size, so a deployment can be sized before building the system — the paper
// uses them in §5.3 to pick MAX_UPDATES.
package bounds

import (
	"fmt"
	"time"
)

// Inputs collects the Table 1 notation: component latencies, the networked
// data size per key frame, and the algorithm parameters.
type Inputs struct {
	TSI  time.Duration // t_si: student inference latency
	TSD  time.Duration // t_sd: one distillation step
	TTI  time.Duration // t_ti: teacher inference latency
	TNet time.Duration // t_net: network latency for one key frame + response
	SNet int           // s_net: bytes moved per key frame (up + down)

	MinStride  int
	MaxStride  int
	MaxUpdates int
}

// Validate reports parameter errors.
func (in Inputs) Validate() error {
	if in.TSI <= 0 {
		return fmt.Errorf("bounds: t_si must be positive, got %v", in.TSI)
	}
	if in.MinStride < 1 || in.MaxStride < in.MinStride {
		return fmt.Errorf("bounds: bad stride range [%d,%d]", in.MinStride, in.MaxStride)
	}
	if in.MaxUpdates < 0 {
		return fmt.Errorf("bounds: MAX_UPDATES must be ≥ 0, got %d", in.MaxUpdates)
	}
	if in.SNet < 0 {
		return fmt.Errorf("bounds: s_net must be ≥ 0, got %d", in.SNet)
	}
	return nil
}

func sec(d time.Duration) float64 { return d.Seconds() }

// TrafficLower evaluates equation 8: bytes/s when key frames are least
// frequent, distillation always exhausts MAX_UPDATES and the client has no
// concurrency.
func (in Inputs) TrafficLower() float64 {
	den := float64(in.MaxStride)*sec(in.TSI) +
		float64(in.MaxUpdates)*sec(in.TSD) + sec(in.TTI) + sec(in.TNet)
	return float64(in.SNet) / den
}

// TrafficUpper evaluates equation 12: bytes/s when key frames are as
// frequent as possible, distillation is skipped and the client is fully
// concurrent.
func (in Inputs) TrafficUpper() float64 {
	den := maxF(float64(in.MinStride)*sec(in.TSI), sec(in.TNet)+sec(in.TTI))
	return float64(in.SNet) / den
}

// ThroughputLower evaluates equation 14 in frames/s.
func (in Inputs) ThroughputLower() float64 {
	den := float64(in.MinStride)*sec(in.TSI) +
		float64(in.MaxUpdates)*sec(in.TSD) + sec(in.TTI) + sec(in.TNet)
	return float64(in.MinStride) / den
}

// ThroughputUpper evaluates equation 15 in frames/s.
func (in Inputs) ThroughputUpper() float64 {
	den := float64(in.MaxStride-in.MinStride)*sec(in.TSI) +
		maxF(float64(in.MinStride)*sec(in.TSI), sec(in.TNet)+sec(in.TTI))
	return float64(in.MaxStride) / den
}

// TrafficBoundsMbps returns (lower, upper) traffic bounds in Mbps, the unit
// of Table 5 (§6.2 reports 2.53 and 21.2 Mbps for the paper's setup).
func (in Inputs) TrafficBoundsMbps() (lo, hi float64) {
	return in.TrafficLower() * 8 / 1e6, in.TrafficUpper() * 8 / 1e6
}

// MaxUpdatesFor searches for the largest MAX_UPDATES whose throughput lower
// bound stays at or above minFPS — the §5.3 procedure that picked 8. It
// returns 0 and false when even MAX_UPDATES=0 misses the target.
func (in Inputs) MaxUpdatesFor(minFPS float64, limit int) (int, bool) {
	best, found := 0, false
	for mu := 0; mu <= limit; mu++ {
		trial := in
		trial.MaxUpdates = mu
		if trial.ThroughputLower() >= minFPS {
			best, found = mu, true
		}
	}
	return best, found
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
