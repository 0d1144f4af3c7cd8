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
// towards 8 Mbps, an LTE handover, …). Traces drive both the virtual-time
// transfer accounting (TransferTime) and, via Drive/NewTracedConn, the real
// TCP token-bucket throttle.
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

// Steps returns a copy of the trace's steps.
func (t *Trace) Steps() []TraceStep { return append([]TraceStep(nil), t.steps...) }

// Initial returns the bandwidth at time 0.
func (t *Trace) Initial() Mbps { return t.steps[0].Bandwidth }

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
	if start < 0 {
		start = 0
	}
	remaining := float64(size)
	cur := start
	var total time.Duration
	for remaining > 0 {
		i := t.index(cur)
		rate := t.steps[i].Bandwidth.BytesPerSecond()
		if i == len(t.steps)-1 {
			// Final segment: constant rate forever.
			return total + time.Duration(remaining/rate*float64(time.Second))
		}
		segLeft := t.steps[i+1].At - cur
		capacity := segLeft.Seconds() * rate
		if capacity >= remaining {
			return total + time.Duration(remaining/rate*float64(time.Second))
		}
		remaining -= capacity
		total += segLeft
		cur = t.steps[i+1].At
	}
	return total
}

// Drive applies the trace to set in real time: each step's bandwidth is
// delivered at its At offset (measured from the call). It returns when the
// last step has been applied or stop is closed. Run it in its own
// goroutine; NewTracedConn does so automatically.
func (t *Trace) Drive(set func(Mbps), stop <-chan struct{}) {
	start := time.Now()
	for _, s := range t.steps {
		if d := s.At - time.Since(start); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		set(s.Bandwidth)
	}
}
