package netsim

import (
	"fmt"
	"time"
)

// TraceStep is one segment of a bandwidth trace: from At onward the link
// runs at Bandwidth, until the next step takes over (the last step holds
// forever).
type TraceStep struct {
	At        time.Duration
	Bandwidth Mbps
}

// Trace is a piecewise-constant time-varying bandwidth profile — the §6.4
// sweep as a single connection would experience it (Wi-Fi degrading from 90
// towards 8 Mbps, an LTE handover, …). A link's rate is a pure function of
// its age: TransferTime and Capacity integrate it exactly, and the real TCP
// token bucket (ThrottledConn) is a caller of both.
type Trace struct {
	name  string
	steps []TraceStep
}

// NewTrace validates and builds a trace. The first step must start at 0 and
// step times must be strictly increasing; every bandwidth must be positive.
func NewTrace(name string, steps ...TraceStep) (*Trace, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("netsim: trace %q has no steps", name)
	}
	if steps[0].At != 0 {
		return nil, fmt.Errorf("netsim: trace %q must start at 0, got %v", name, steps[0].At)
	}
	for i, s := range steps {
		if s.Bandwidth <= 0 {
			return nil, fmt.Errorf("netsim: trace %q step %d has non-positive bandwidth %v", name, i, s.Bandwidth)
		}
		if i > 0 && s.At <= steps[i-1].At {
			return nil, fmt.Errorf("netsim: trace %q step times must increase: step %d at %v after %v", name, i, s.At, steps[i-1].At)
		}
	}
	return &Trace{name: name, steps: append([]TraceStep(nil), steps...)}, nil
}

// MustTrace is NewTrace for statically known-good profiles; it panics on a
// validation error.
func MustTrace(name string, steps ...TraceStep) *Trace {
	t, err := NewTrace(name, steps...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the trace's identifier.
func (t *Trace) Name() string { return t.name }

// At returns the bandwidth in effect at the given elapsed time (negative
// times report the initial bandwidth).
func (t *Trace) At(elapsed time.Duration) Mbps {
	return t.steps[t.index(elapsed)].Bandwidth
}

// index returns the last step whose At is ≤ elapsed.
func (t *Trace) index(elapsed time.Duration) int {
	i := 0
	for i+1 < len(t.steps) && t.steps[i+1].At <= elapsed {
		i++
	}
	return i
}

// TransferTime returns how long size bytes take to serialise onto a link
// following the trace, for a transfer beginning at elapsed time start. The
// integration is exact across rate changes: each segment contributes
// capacity at its own rate until the bytes run out.
func (t *Trace) TransferTime(start time.Duration, size int) time.Duration {
	start = max(start, 0)
	cur, remaining := start, float64(size)
	i := t.index(cur)
	for ; i < len(t.steps)-1; i++ {
		capacity := (t.steps[i+1].At - cur).Seconds() * t.steps[i].Bandwidth.BytesPerSecond()
		if capacity >= remaining {
			break
		}
		remaining -= capacity
		cur = t.steps[i+1].At
	}
	// The segment the bytes run out in; the final one holds its rate forever.
	rate := t.steps[i].Bandwidth.BytesPerSecond()
	return cur - start + time.Duration(remaining/rate*float64(time.Second))
}

// Capacity returns how many bytes a link following the trace carries
// between elapsed times from and to — TransferTime's inverse, and what the
// real TCP token bucket accrues between two visits.
func (t *Trace) Capacity(from, to time.Duration) float64 {
	from = max(from, 0)
	var bytes float64
	for i := t.index(from); from < to; i++ {
		end := to
		if i+1 < len(t.steps) && t.steps[i+1].At < to {
			end = t.steps[i+1].At
		}
		bytes += (end - from).Seconds() * t.steps[i].Bandwidth.BytesPerSecond()
		from = end
	}
	return bytes
}

// ConstantTrace is the one-step trace of a fixed-bandwidth link.
func ConstantTrace(bw Mbps) *Trace {
	return MustTrace("constant", TraceStep{Bandwidth: bw})
}
