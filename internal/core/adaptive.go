package core

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// PolicyByName is netsim.PolicyByName plus the check netsim cannot make:
// every decision the policy can take must name a codec transport.DiffCodec
// accepts, so a bad spec fails where the policy is configured instead of at
// each session's first key frame.
func PolicyByName(spec string) (netsim.LinkPolicy, error) {
	p, err := netsim.PolicyByName(spec)
	if err != nil {
		return nil, err
	}
	for _, dec := range p.Decisions() {
		if _, err := transport.DiffCodec(dec.Codec); err != nil {
			return nil, fmt.Errorf("core: link policy %q: %w", spec, err)
		}
	}
	return p, nil
}

// DecodeAdaptiveDiff is transport.DecodeStudentDiff with the diff's link
// decision copied out. It is kept only because benchmark/taps.go calls it.
func DecodeAdaptiveDiff(b []byte) (transport.StudentDiff, netsim.LinkDecision, error) {
	d, err := transport.DecodeStudentDiff(b)
	return d, netsim.LinkDecision{State: d.State, Codec: d.Codec, StrideScale: d.StrideScale}, err
}
