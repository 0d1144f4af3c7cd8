package netsim

import (
	"fmt"
	"strings"
	"sync"
)

// LinkObservation is a writer-side snapshot of a packet link's health — the
// input the adaptive policy engine reacts to.
type LinkObservation struct {
	// LossRate is the EWMA of the per-packet loss indicator.
	LossRate float64
	// GoodputMbps is delivered application payload over the link's lifetime.
	GoodputMbps float64
	// Counters since the conn opened.
	PacketsSent, PacketsLost, Recovered, Retransmits int64
}

// LinkObserver is implemented by conns that expose packet-link stats
// (e.g. transport.TCPConn when a PacketConn is bound).
type LinkObserver interface {
	LinkObservation() LinkObservation
}

// PolicyState is the adaptive engine's discrete link assessment.
type PolicyState uint8

const (
	// LinkClear: negligible loss; spend bandwidth on fidelity.
	LinkClear PolicyState = iota
	// LinkDegraded: sustained loss; compress diffs and protect with FEC.
	LinkDegraded
	// LinkCritical: heavy/bursty loss; compress hard, shorten FEC groups,
	// and stretch the stride so fewer key frames fight the link.
	LinkCritical
)

// String implements fmt.Stringer.
func (s PolicyState) String() string {
	switch s {
	case LinkClear:
		return "clear"
	case LinkDegraded:
		return "degraded"
	case LinkCritical:
		return "critical"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// LinkDecision is what a policy asks the serving path to do for the next
// student diff.
type LinkDecision struct {
	State PolicyState
	// Codec names the diff codec (compress.ByName) to encode with. It must
	// be self-contained — base-relative codecs ("delta+…") are rejected.
	Codec string
	// StrideScale multiplies Algorithm 2's next stride on the client
	// (clamped to the config's stride bounds); 1 means no change. Larger
	// scales mean fewer key frames, trading accuracy for traffic.
	StrideScale float64
	// FECGroup adjusts the conn's parity group size: >0 sets it, <0
	// disables FEC, 0 leaves it as configured.
	FECGroup int
}

// LinkPolicy maps link observations to serving decisions. Decide is called
// once per key frame from the session's serve goroutine.
type LinkPolicy interface {
	Name() string
	Decide(LinkObservation) LinkDecision
	// Decisions lists every decision Decide can return, so whoever
	// configures a policy can validate its codecs up front.
	Decisions() []LinkDecision
}

// StaticPolicy always returns the same decision — the fixed-configuration
// baseline the adaptive engine is compared against.
type StaticPolicy struct {
	Label    string
	Decision LinkDecision
}

// Name implements LinkPolicy.
func (p *StaticPolicy) Name() string { return p.Label }

// Decide implements LinkPolicy.
func (p *StaticPolicy) Decide(LinkObservation) LinkDecision { return p.Decision }

// Decisions implements LinkPolicy.
func (p *StaticPolicy) Decisions() []LinkDecision { return []LinkDecision{p.Decision} }

// AdaptiveEngine is a three-state hysteresis controller over the measured
// loss rate:
//
//	         loss ≥ DegradedEnter                 loss ≥ CriticalEnter
//	clear ────────────────────────▶ degraded ────────────────────────▶ critical
//	  ◀──────────────────────────     ◀──────────────────────────────
//	         loss < DegradedExit                  loss < CriticalExit
//
// (clear also jumps straight to critical when loss ≥ CriticalEnter, and
// critical falls straight back to clear when loss < DegradedExit.) Each
// state carries a full LinkDecision; the enter/exit gap keeps the engine
// from flapping on a noisy loss estimate.
type AdaptiveEngine struct {
	// Hysteresis thresholds on the EWMA loss rate.
	DegradedEnter, DegradedExit float64
	CriticalEnter, CriticalExit float64
	// Decisions per state.
	Clear, Degraded, Critical LinkDecision

	mu    sync.Mutex
	state PolicyState
}

// NewAdaptiveEngine returns the default engine: raw diffs with FEC off on a
// clear link, int8 diffs with 8-packet parity groups once loss is sustained,
// and int8 + short parity groups + doubled stride when the link turns
// critical.
func NewAdaptiveEngine() *AdaptiveEngine {
	return &AdaptiveEngine{
		DegradedEnter: 0.010, DegradedExit: 0.004,
		CriticalEnter: 0.060, CriticalExit: 0.030,
		Clear:    LinkDecision{State: LinkClear, Codec: "raw", StrideScale: 1, FECGroup: -1},
		Degraded: LinkDecision{State: LinkDegraded, Codec: "int8", StrideScale: 1.5, FECGroup: 8},
		Critical: LinkDecision{State: LinkCritical, Codec: "int8", StrideScale: 2, FECGroup: 4},
	}
}

// Name implements LinkPolicy.
func (e *AdaptiveEngine) Name() string { return "adaptive" }

// Decide implements LinkPolicy: advance the hysteresis state machine on the
// observed loss rate and return the state's decision.
func (e *AdaptiveEngine) Decide(obs LinkObservation) LinkDecision {
	e.mu.Lock()
	defer e.mu.Unlock()
	loss := obs.LossRate
	switch e.state {
	case LinkClear:
		if loss >= e.CriticalEnter {
			e.state = LinkCritical
		} else if loss >= e.DegradedEnter {
			e.state = LinkDegraded
		}
	case LinkDegraded:
		if loss >= e.CriticalEnter {
			e.state = LinkCritical
		} else if loss < e.DegradedExit {
			e.state = LinkClear
		}
	case LinkCritical:
		if loss < e.DegradedExit {
			e.state = LinkClear
		} else if loss < e.CriticalExit {
			e.state = LinkDegraded
		}
	}
	switch e.state {
	case LinkDegraded:
		return e.Degraded
	case LinkCritical:
		return e.Critical
	default:
		return e.Clear
	}
}

// Decisions implements LinkPolicy.
func (e *AdaptiveEngine) Decisions() []LinkDecision {
	return []LinkDecision{e.Clear, e.Degraded, e.Critical}
}

// PolicyByName builds a link policy from a spec string:
//
//	"adaptive"        the default AdaptiveEngine
//	"static:<codec>"  a StaticPolicy pinning the given diff codec with no
//	                  stride scaling and the conn's configured FEC
func PolicyByName(spec string) (LinkPolicy, error) {
	spec = strings.TrimSpace(spec)
	switch {
	case spec == "adaptive":
		return NewAdaptiveEngine(), nil
	case strings.HasPrefix(spec, "static:"):
		codec := strings.TrimPrefix(spec, "static:")
		return &StaticPolicy{
			Label:    spec,
			Decision: LinkDecision{State: LinkClear, Codec: codec, StrideScale: 1},
		}, nil
	default:
		return nil, fmt.Errorf("netsim: unknown link policy %q (want \"adaptive\" or \"static:<codec>\")", spec)
	}
}
