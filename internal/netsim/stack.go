package netsim

import "net"

// Stack is one end of a simulated link as a value: what shapes, segments
// and breaks the bytes between the transport and its socket. Every
// combination of stages is legal; the zero Stack is the bare socket.
type Stack struct {
	// Bandwidth throttles both directions to a fixed rate (0 = unlimited).
	// Ignored when Trace is set.
	Bandwidth Mbps
	// Trace throttles both directions to a rate that follows the link's age.
	Trace *Trace
	// Packet, when non-nil, runs the stream through the packet layer; the
	// peer's stack must carry one too.
	Packet *PacketOptions
	// Faults scripts stalls and cuts at offsets of the transport's own byte
	// stream.
	Faults []Fault
}

// Wrap builds the link around conn, in the one order the stages compose:
//
//	app → FaultyConn → PacketConn → ThrottledConn → socket
//
// The throttle is innermost so packet headers, parity and retransmissions
// consume link bandwidth; the faults are outermost so a scripted offset
// counts message bytes whatever the packet layer adds beneath it, and a cut
// never lands inside a packet. The PacketConn is also returned (nil without
// one) for its link stats and FEC control.
func (s Stack) Wrap(conn net.Conn) (net.Conn, *PacketConn) {
	tr := s.Trace
	if tr == nil && s.Bandwidth > 0 {
		tr = ConstantTrace(s.Bandwidth)
	}
	if tr != nil {
		conn = NewThrottledConn(conn, tr)
	}
	var pc *PacketConn
	if s.Packet != nil {
		pc = NewPacketConn(conn, *s.Packet)
		conn = pc
	}
	if len(s.Faults) > 0 {
		conn = NewFaultyConn(conn, s.Faults...)
	}
	return conn, pc
}
