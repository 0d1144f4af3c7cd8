package netsim

// LinkObservation is a writer-side snapshot of a packet link's health.
type LinkObservation struct {
	// GoodputMbps is delivered application payload over the link's lifetime.
	GoodputMbps float64
	// Counters since the conn opened.
	PacketsSent, PacketsLost, Recovered, Retransmits int64
}

// LinkDecision names the diff codec (compress.ByName) a student diff was
// encoded under. A server's codec is fixed when it is built; the type is
// what core.DecodeAdaptiveDiff hands back beside the diff.
type LinkDecision struct {
	Codec string
}
