// Package netsim models the network between the mobile client and the
// server.
//
// The byte-stream tier reproduces the paper's link setup: bandwidth-limited
// links matching §6.1 (80 Mbps Wi-Fi) and the §6.4 sweep (90…8 Mbps),
// transfer-time accounting (Link), piecewise time-varying bandwidth
// profiles integrated exactly in both directions (Trace.TransferTime,
// Trace.Capacity), real-TCP token-bucket shaping whose rate is a pure
// function of the link's age (ThrottledConn over a Trace; a fixed
// bandwidth is ConstantTrace), scripted connection faults (FaultyConn),
// and the scaling of reduced-resolution synthetic frames back to the
// paper's HD data sizes (HDScale) so traffic numbers stay comparable to
// Tables 4–5.
//
// A link is one value: Stack names the stages of one end of a connection
// and Stack.Wrap builds them around a socket in the one order they compose
// (app → FaultyConn → PacketConn → ThrottledConn → socket), so every
// combination is legal. The package starts no goroutine, and the shaper
// touches the clock through time.Now and time.Sleep alone.
//
// The packet tier adds loss realism on top of the shaped stream. A
// PacketConn segments writes into MTU-sized packets and runs each through a
// pluggable LossModel — uniform random (UniformLoss), two-state burst
// (GilbertElliott), or a threshold schedule keyed to a bandwidth Trace
// (ThresholdLoss) — plus reorder/jitter Impairment. XOR parity groups
// (FEC) let any single lost packet in a group recover without a resend;
// unrecoverable losses cost an RTO stall plus retransmission. All
// randomness is counter-based hashing over (seed, packet seq), so a given
// seed yields a bitwise-identical packet schedule regardless of timing or
// GOMAXPROCS.
//
// The policy tier closes the loop: a LinkPolicy (AdaptiveEngine) watches
// the writer-side LinkObservation (EWMA loss, goodput) and decides, per key
// frame, which diff codec to use, how to scale the client's stride, and how
// much FEC to spend — the serving path applies the decision at runtime.
package netsim
