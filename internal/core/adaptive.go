package core

import (
	"repro/internal/netsim"
	"repro/internal/transport"
)

// DecodeAdaptiveDiff is transport.DecodeStudentDiff with the diff's codec
// copied out. It is kept only because benchmark/taps.go calls it.
func DecodeAdaptiveDiff(b []byte) (transport.StudentDiff, netsim.LinkDecision, error) {
	d, err := transport.DecodeStudentDiff(b)
	return d, netsim.LinkDecision{Codec: d.Codec}, err
}
