package netsim

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjectedCut reports a connection severed by a FaultyConn script. The
// underlying conn is closed when the fault fires, so the peer observes the
// drop too.
var ErrInjectedCut = errors.New("netsim: connection cut by fault script")

// FaultDir selects which direction's bytes arm a fault.
type FaultDir uint8

// Fault directions, counted from the wrapped side's perspective.
const (
	// Up counts bytes written through the conn.
	Up FaultDir = iota
	// Down counts bytes read through the conn.
	Down
)

// String implements fmt.Stringer.
func (d FaultDir) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Fault is one scripted connection event: once the connection has moved
// AfterBytes bytes in direction Dir, either stall the transfer for Stall,
// or (Stall == 0) sever the connection — both sides observe the drop.
//
// With Frame set, AfterBytes counts instead from the first byte of the
// Frame-th message of type FrameType moving in Dir (1-based, in the
// transport's framing: a type byte, a 4-byte little-endian body length,
// the body) — "300 bytes into the second student diff", wherever the sizes
// of the messages before it put that. AfterBytes past that message's end
// lands in whatever follows it.
type Fault struct {
	AfterBytes int64
	Dir        FaultDir
	Stall      time.Duration
	Frame      int
	FrameType  uint8
}

// frameHeader is the transport's message header: type byte, body length.
const frameHeader = 5

// frameScan follows one direction's byte stream message by message, so a
// frame-relative fault can be pinned to an offset the moment its message's
// header has gone by. The conn feeds it every byte, never more at a time
// than left() — a header or a body, never across the boundary.
type frameScan struct {
	hdr   [frameHeader]byte
	have  int      // header bytes collected of the message in progress
	body  int64    // body bytes of it still to come
	count [256]int // messages begun, by type
	start int64    // stream offset of the message in progress
}

// left returns how many bytes finish the current header or body.
func (s *frameScan) left() int64 {
	if s.body > 0 {
		return s.body
	}
	return int64(frameHeader - s.have)
}

// FaultyConn wraps a net.Conn and injects connection faults at scripted
// byte offsets — the chaos half of the network simulator: a mid-stream
// Wi-Fi drop becomes a deterministic, replayable event at an exact point
// in the protocol stream. Transfers are split at fault boundaries, so a
// cut in the middle of a large write delivers exactly the scripted prefix
// before failing. Safe for one concurrent reader plus one writer (the
// transport's usage).
type FaultyConn struct {
	net.Conn

	mu     sync.Mutex
	script []Fault // unfired faults, consumed in the order given per direction
	up     int64
	down   int64
	scan   [2]frameScan // indexed by FaultDir
	cut    bool
}

// NewFaultyConn wraps conn with the given fault script. Faults fire in
// list order within each direction; offsets are cumulative per direction.
func NewFaultyConn(conn net.Conn, script ...Fault) *FaultyConn {
	return &FaultyConn{Conn: conn, script: append([]Fault(nil), script...)}
}

// counter returns the byte counter for dir. Caller holds c.mu.
func (c *FaultyConn) counter(dir FaultDir) *int64 {
	if dir == Up {
		return &c.up
	}
	return &c.down
}

// room reports how many of want bytes may move in dir before the next
// fault (one pinned to an offset: a frame-relative fault cannot fire before
// its message begins), and fires due faults: a stall is returned for the caller to sleep
// off (the script entry is consumed first), a cut closes the conn and
// reports ErrInjectedCut. room == 0 with a nil error only when want == 0.
func (c *FaultyConn) room(dir FaultDir, want int) (int, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waiting(dir) {
		// Let bytes through a header or a body at a time, so the scan sees
		// the message a frame-relative fault waits for begin.
		want = int(min(int64(want), c.scan[dir].left()))
	}
	for {
		if c.cut {
			return 0, 0, ErrInjectedCut
		}
		next := -1
		for i, f := range c.script {
			if f.Dir == dir && f.Frame == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			return want, 0, nil
		}
		f := c.script[next]
		left := f.AfterBytes - *c.counter(dir)
		if left > 0 {
			if int64(want) > left {
				want = int(left)
			}
			return want, 0, nil
		}
		// The fault is due: consume it and act.
		c.script = append(c.script[:next], c.script[next+1:]...)
		if f.Stall > 0 {
			return 0, f.Stall, nil
		}
		c.cut = true
		c.Conn.Close()
		return 0, 0, ErrInjectedCut
	}
}

// waiting reports whether a frame-relative fault in dir has yet to see its
// message begin. Caller holds c.mu.
func (c *FaultyConn) waiting(dir FaultDir) bool {
	for _, f := range c.script {
		if f.Dir == dir && f.Frame > 0 {
			return true
		}
	}
	return false
}

// add records that p moved in dir. While a frame-relative fault is waiting
// in that direction it also walks the message framing, and pins every fault
// whose message just began to an absolute offset.
func (c *FaultyConn) add(dir FaultDir, p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	at := *c.counter(dir)
	*c.counter(dir) += int64(len(p))
	if !c.waiting(dir) {
		return
	}
	s := &c.scan[dir]
	if s.body > 0 {
		s.body -= int64(len(p))
		return
	}
	if s.have == 0 {
		s.start = at
	}
	s.have += copy(s.hdr[s.have:], p)
	if s.have < frameHeader {
		return
	}
	typ := s.hdr[0]
	s.have, s.body = 0, int64(binary.LittleEndian.Uint32(s.hdr[1:]))
	s.count[typ]++
	for i := range c.script {
		if f := &c.script[i]; f.Dir == dir && f.Frame == s.count[typ] && f.FrameType == typ {
			f.AfterBytes += s.start
			f.Frame = 0
		}
	}
}

// Read implements net.Conn, stopping short of the next Down fault.
func (c *FaultyConn) Read(p []byte) (int, error) {
	for {
		n, stall, err := c.room(Down, len(p))
		if err != nil {
			return 0, err
		}
		if stall > 0 {
			time.Sleep(stall)
			continue
		}
		if n == 0 {
			return c.Conn.Read(p[:0])
		}
		m, err := c.Conn.Read(p[:n])
		c.add(Down, p[:m])
		return m, err
	}
}

// Write implements net.Conn, splitting at fault boundaries so the peer
// receives exactly the bytes scripted before a cut.
func (c *FaultyConn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		n, stall, err := c.room(Up, len(p)-written)
		if err != nil {
			return written, err
		}
		if stall > 0 {
			time.Sleep(stall)
			continue
		}
		m, err := c.Conn.Write(p[written : written+n])
		c.add(Up, p[written:written+m])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
