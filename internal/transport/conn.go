package transport

import (
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/netsim"
)

// Conn is a bidirectional message channel between client and server. Both
// the TCP carrier and the in-process pipe implement it.
type Conn interface {
	Send(m Message) error
	Recv() (Message, error)
	Close() error
}

// ---------------------------------------------------------------------------
// TCP carrier
// ---------------------------------------------------------------------------

// TCPConn frames messages over a net.Conn. Send and Recv are each safe for
// one concurrent caller (the async client sends on its Run goroutine and
// receives on its link goroutine).
type TCPConn struct {
	conn    net.Conn
	sendMu  sync.Mutex
	recvMu  sync.Mutex
	acct    *netsim.Accountant
	fromSrv bool // direction tag for accounting
	pc      *netsim.PacketConn
}

// NewTCPConn wraps a net.Conn. acct may be nil; fromServer marks the server
// side (its Sends count as to-client bytes).
func NewTCPConn(conn net.Conn, acct *netsim.Accountant, fromServer bool) *TCPConn {
	return &TCPConn{conn: conn, acct: acct, fromSrv: fromServer}
}

// LinkObservation reports the packet layer's writer-side counters. Without
// a packet layer in the link's stack it reports a zero observation (a
// perfectly clear link).
func (c *TCPConn) LinkObservation() netsim.LinkObservation {
	if c.pc == nil {
		return netsim.LinkObservation{}
	}
	return c.pc.Observation()
}

// SetFECGroup adjusts the packet layer's parity group size; it is a no-op
// without one.
func (c *TCPConn) SetFECGroup(k int) {
	if c.pc != nil {
		c.pc.SetFECGroup(k)
	}
}

// Send implements Conn.
func (c *TCPConn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.acct != nil {
		size := FrameOverhead + len(m.Body)
		if c.fromSrv {
			c.acct.AddToClient(size)
		} else {
			c.acct.AddToServer(size)
		}
	}
	return WriteMessage(c.conn, m)
}

// Recv implements Conn.
func (c *TCPConn) Recv() (Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	return ReadMessage(c.conn)
}

// Close implements Conn.
func (c *TCPConn) Close() error { return c.conn.Close() }

// DialLink connects to a ShadowTutor server over the simulated link the
// stack describes. A packet layer only interoperates with a server that
// wraps accepted conns in one too (Listener.SetPacketWrap).
func DialLink(addr string, link netsim.Stack, acct *netsim.Accountant) (*TCPConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	conn, pc := link.Wrap(nc)
	return &TCPConn{conn: conn, acct: acct, pc: pc}, nil
}

// Dial is DialLink over a fixed-bandwidth byte stream (0 = unlimited).
func Dial(addr string, bw netsim.Mbps, acct *netsim.Accountant) (*TCPConn, error) {
	return DialLink(addr, netsim.Stack{Bandwidth: bw}, acct)
}

// DialImpaired is DialLink over a shaped link (trace wins over fixed
// bandwidth) with a packet layer.
func DialImpaired(addr string, bw netsim.Mbps, tr *netsim.Trace, popts netsim.PacketOptions, acct *netsim.Accountant) (*TCPConn, error) {
	return DialLink(addr, netsim.Stack{Bandwidth: bw, Trace: tr, Packet: &popts}, acct)
}

// Listener accepts ShadowTutor protocol connections.
type Listener struct {
	ln     net.Listener
	bw     netsim.Mbps
	acct   *netsim.Accountant
	packet func() *netsim.PacketOptions
}

// SetPacketWrap installs a per-accept packet-layer factory: each accepted
// conn's stack carries a packet layer built from the options the factory
// returns. The factory runs once per accept — return distinct loss-model
// instances (stateful models must not be shared across conns) or nil to
// skip the layer for that conn. Clients must dial with a matching packet
// layer (Stack.Packet).
func (l *Listener) SetPacketWrap(factory func() *netsim.PacketOptions) { l.packet = factory }

// Listen starts listening on addr (e.g. "127.0.0.1:0").
func Listen(addr string, bw netsim.Mbps, acct *netsim.Accountant) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{ln: ln, bw: bw, acct: acct}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (*TCPConn, error) {
	nc, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	link := netsim.Stack{Bandwidth: l.bw}
	if l.packet != nil {
		link.Packet = l.packet()
	}
	conn, pc := link.Wrap(nc)
	return &TCPConn{conn: conn, acct: l.acct, fromSrv: true, pc: pc}, nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.ln.Close() }

// ---------------------------------------------------------------------------
// In-process pipe carrier
// ---------------------------------------------------------------------------

// PipeConn is an in-memory Conn backed by buffered channels; Pipe returns a
// connected pair. Used by tests and the quickstart example where spinning
// up TCP would add noise.
type PipeConn struct {
	send chan<- Message
	recv <-chan Message

	closeOnce sync.Once
	closed    chan struct{}
	peer      *PipeConn
	acct      *netsim.Accountant
	fromSrv   bool
}

// Pipe returns a connected (client, server) pair with the given channel
// depth. acct may be nil.
func Pipe(depth int, acct *netsim.Accountant) (client, server *PipeConn) {
	c2s := make(chan Message, depth)
	s2c := make(chan Message, depth)
	client = &PipeConn{send: c2s, recv: s2c, closed: make(chan struct{}), acct: acct, fromSrv: false}
	server = &PipeConn{send: s2c, recv: c2s, closed: make(chan struct{}), acct: acct, fromSrv: true}
	client.peer = server
	server.peer = client
	return client, server
}

// Send implements Conn.
func (p *PipeConn) Send(m Message) error {
	select {
	case <-p.closed:
		return io.ErrClosedPipe
	case <-p.peer.closed:
		return io.ErrClosedPipe
	default:
	}
	if p.acct != nil {
		size := FrameOverhead + len(m.Body)
		if p.fromSrv {
			p.acct.AddToClient(size)
		} else {
			p.acct.AddToServer(size)
		}
	}
	select {
	case p.send <- m:
		return nil
	case <-p.closed:
		return io.ErrClosedPipe
	case <-p.peer.closed:
		return io.ErrClosedPipe
	}
}

// Recv implements Conn.
func (p *PipeConn) Recv() (Message, error) {
	select {
	case m := <-p.recv:
		return m, nil
	case <-p.closed:
		return Message{}, io.EOF
	case <-p.peer.closed:
		// Drain anything already queued before reporting EOF.
		select {
		case m := <-p.recv:
			return m, nil
		default:
			return Message{}, io.EOF
		}
	}
}

// Close implements Conn.
func (p *PipeConn) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	return nil
}
