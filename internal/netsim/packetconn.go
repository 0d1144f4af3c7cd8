package netsim

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRTO is the simulated retransmission timeout: when a loss is not
// recoverable from FEC parity, the writer stalls this long (one detect +
// resend round trip) before retransmitting — the latency cost a reliable
// stream pays for an unrecovered loss.
const DefaultRTO = 40 * time.Millisecond

// PacketOptions configures a PacketConn.
type PacketOptions struct {
	// FECGroup is the initial XOR parity group size (0 = no FEC). It can
	// be changed at runtime with SetFECGroup.
	FECGroup int
	// Loss decides per-packet fates on this conn's write path (nil = no
	// loss). Both ends of a link carry independent models: each simulates
	// loss for the direction it transmits.
	Loss LossModel
	// Impair adds reorder/jitter displacement on the write path.
	Impair *Impairment
	// RTO is the stall charged per write batch with unrecoverable losses
	// (0 = DefaultRTO).
	RTO time.Duration
	// Totals, when non-nil, aggregates this conn's counters with other
	// conns sharing the same direction (e.g. all downlinks in a run).
	Totals *LinkTotals
}

// LinkTotals aggregates packet-layer counters across the conns of one link
// direction. All fields are atomic; read them with Load.
type LinkTotals struct {
	Sent, Lost, Recovered, Retransmits, Parity atomic.Int64
	PayloadBytes, WireBytes                    atomic.Int64
}

// PacketConn segments a byte stream into MTU-sized packets and simulates an
// unreliable link on its write path: each data packet runs through the
// LossModel and Impairment, groups of FECGroup packets get an XOR parity
// packet so any single loss in the group recovers without a resend, and
// unrecoverable losses cost an RTO stall plus retransmission. The read path
// reassembles the peer's packet stream (reordering, parity recovery) back
// into in-order bytes.
//
// Stack.Wrap places it above the bandwidth throttle, so header, parity and
// retransmission overhead consume link bandwidth.
//
// Both ends of a connection must speak the packet framing; a PacketConn
// cannot interoperate with a raw byte stream.
type PacketConn struct {
	net.Conn
	rto    time.Duration
	loss   LossModel
	impair *Impairment
	totals *LinkTotals
	start  time.Time

	fecSize atomic.Int32

	// Write path. wmu also guards the loss model's sequential use.
	wmu       sync.Mutex
	nextSeq   uint32
	nextGroup uint32
	wbuf      []byte

	// Read path.
	rmu     sync.Mutex
	rbuf    []byte
	deliver uint32 // next expected data seq
	pending map[uint32][]byte
	groups  map[uint32]*fecGroup
	rerr    error

	// Stats (writer view, read by Observation).
	smu                            sync.Mutex
	sent, lost, recovered, retrans int64
	payloadBytes                   int64
}

// fecGroup tracks one parity group on the read path.
type fecGroup struct {
	startSeq  uint32
	size      int
	have      int
	got       [][]byte
	parity    []byte
	lenXor    uint16
	hasParity bool
	done      bool
}

// NewPacketConn wraps conn with the packet layer.
func NewPacketConn(conn net.Conn, opts PacketOptions) *PacketConn {
	rto := opts.RTO
	if rto <= 0 {
		rto = DefaultRTO
	}
	c := &PacketConn{
		Conn:      conn,
		rto:       rto,
		loss:      opts.Loss,
		impair:    opts.Impair,
		totals:    opts.Totals,
		start:     time.Now(),
		nextSeq:   1,
		nextGroup: 1,
		deliver:   1,
		pending:   make(map[uint32][]byte),
		groups:    make(map[uint32]*fecGroup),
	}
	c.SetFECGroup(opts.FECGroup)
	return c
}

// SetFECGroup changes the parity group size for subsequent writes: k data
// packets per XOR parity packet, 0 (or negative) disables FEC. Safe to call
// concurrently with Write.
func (c *PacketConn) SetFECGroup(k int) {
	if k < 0 {
		k = 0
	}
	if k > MaxFECGroup {
		k = MaxFECGroup
	}
	c.fecSize.Store(int32(k))
}

// noteData records one data-packet fate in the stats and the shared totals.
func (c *PacketConn) noteData(lost bool) {
	c.smu.Lock()
	c.sent++
	if lost {
		c.lost++
	}
	c.smu.Unlock()
	if c.totals != nil {
		c.totals.Sent.Add(1)
		if lost {
			c.totals.Lost.Add(1)
		}
	}
}

// Observation snapshots the writer-side link stats.
func (c *PacketConn) Observation() LinkObservation {
	c.smu.Lock()
	obs := LinkObservation{
		GoodputMbps: TrafficMbps(c.payloadBytes, time.Since(c.start)),
		PacketsSent: c.sent,
		PacketsLost: c.lost,
		Recovered:   c.recovered,
		Retransmits: c.retrans,
	}
	c.smu.Unlock()
	return obs
}

// emitEntry pairs a packet with its impaired emission position.
type emitEntry struct {
	pkt Packet
	pos int
}

// Write implements net.Conn: segment p into packets, decide fates, emit
// survivors (impairment-ordered) plus parity, recover or retransmit losses.
func (c *PacketConn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()

	// Segment into ≤MTU payloads. Groups never span Write calls.
	var segs [][]byte
	for off := 0; off < len(p); off += DefaultMTU {
		end := off + DefaultMTU
		if end > len(p) {
			end = len(p)
		}
		segs = append(segs, p[off:end])
	}

	k := int(c.fecSize.Load())
	elapsed := time.Since(c.start)
	var emit []emitEntry
	var parities []Packet // parity per group, emitted after its group's data
	var lostPkts []Packet // unrecoverable: retransmitted after the RTO stall
	recoveredNow := int64(0)

	for startIdx := 0; startIdx < len(segs); {
		n := len(segs) - startIdx
		if k > 0 && n > k {
			n = k
		}
		members := segs[startIdx : startIdx+n]
		grouped := k > 0
		var gid uint32
		if grouped {
			gid = c.nextGroup
			c.nextGroup++
		}
		groupStart := c.nextSeq
		var groupLost []Packet
		for i, m := range members {
			seq := c.nextSeq
			c.nextSeq++
			pkt := Packet{Kind: KindData, Seq: seq, Payload: m}
			if grouped {
				pkt.Group = gid
				pkt.GroupIndex = byte(i)
				pkt.GroupSize = byte(n)
			}
			dropped := c.loss != nil && c.loss.Drop(uint64(seq), elapsed)
			c.noteData(dropped)
			if dropped {
				groupLost = append(groupLost, pkt)
			} else {
				emit = append(emit, emitEntry{pkt, len(emit) + c.impair.Defer(uint64(seq))})
			}
		}
		parityOK := false
		if grouped {
			pay, lenXor := ParityPayload(members)
			ppkt := Packet{Kind: KindParity, Seq: groupStart, Group: gid, GroupSize: byte(n), LenXor: lenXor, Payload: pay}
			// Parity packets face the same link: draw their fate from a
			// distinct (high-bit-tagged) sequence domain.
			pdrop := c.loss != nil && c.loss.Drop(1<<63|uint64(gid), elapsed)
			if c.totals != nil {
				c.totals.Parity.Add(1)
			}
			if !pdrop {
				parities = append(parities, ppkt)
				parityOK = true
			}
		}
		if parityOK && len(groupLost) == 1 {
			// The receiver reconstructs the member from parity; no resend.
			recoveredNow++
		} else {
			lostPkts = append(lostPkts, groupLost...)
		}
		startIdx += n
	}

	if recoveredNow > 0 {
		c.smu.Lock()
		c.recovered += recoveredNow
		c.smu.Unlock()
		if c.totals != nil {
			c.totals.Recovered.Add(recoveredNow)
		}
	}

	// Impairment: stable-sort survivors by displaced position, then append
	// each group's parity behind the data it protects.
	sort.SliceStable(emit, func(i, j int) bool { return emit[i].pos < emit[j].pos })
	c.wbuf = c.wbuf[:0]
	for _, e := range emit {
		c.wbuf = AppendPacket(c.wbuf, e.pkt)
	}
	for _, ppkt := range parities {
		c.wbuf = AppendPacket(c.wbuf, ppkt)
	}
	if err := c.writeWire(c.wbuf); err != nil {
		return 0, err
	}

	if len(lostPkts) > 0 {
		// One RTO covers the whole batch (losses are detected and resent in
		// a single round trip); retransmissions always succeed.
		time.Sleep(c.rto)
		c.wbuf = c.wbuf[:0]
		for _, pkt := range lostPkts {
			c.wbuf = AppendPacket(c.wbuf, pkt)
		}
		if err := c.writeWire(c.wbuf); err != nil {
			return 0, err
		}
		c.smu.Lock()
		c.retrans += int64(len(lostPkts))
		c.smu.Unlock()
		if c.totals != nil {
			c.totals.Retransmits.Add(int64(len(lostPkts)))
		}
	}

	c.smu.Lock()
	c.payloadBytes += int64(len(p))
	c.smu.Unlock()
	if c.totals != nil {
		c.totals.PayloadBytes.Add(int64(len(p)))
	}
	return len(p), nil
}

// writeWire pushes encoded packets to the inner conn and accounts wire bytes.
func (c *PacketConn) writeWire(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	n, err := c.Conn.Write(buf)
	if c.totals != nil && n > 0 {
		c.totals.WireBytes.Add(int64(n))
	}
	return err
}

// maxPending bounds the reassembly buffer; a well-formed peer never comes
// close (displacement is ≤ maxDefer and retransmits follow within one RTO).
const maxPending = 1 << 14

// Read implements net.Conn: reassemble the peer's packet stream into
// in-order bytes.
func (c *PacketConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for len(c.rbuf) == 0 {
		if c.rerr != nil {
			return 0, c.rerr
		}
		pkt, err := ReadPacket(c.Conn)
		if err != nil {
			c.rerr = err
			return 0, err
		}
		if err := c.process(pkt); err != nil {
			c.rerr = err
			return 0, err
		}
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	if len(c.rbuf) == 0 {
		c.rbuf = nil
	}
	return n, nil
}

// process folds one received packet into the reassembly state.
func (c *PacketConn) process(pkt Packet) error {
	if pkt.Kind == KindParity {
		g := c.group(pkt.Group)
		g.startSeq = pkt.Seq
		g.size = int(pkt.GroupSize)
		g.parity = pkt.Payload
		g.lenXor = pkt.LenXor
		g.hasParity = true
		return c.tryRecover(pkt.Group, g)
	}
	if pkt.GroupSize > 0 {
		g := c.group(pkt.Group)
		if g.size == 0 {
			g.size = int(pkt.GroupSize)
			g.startSeq = pkt.Seq - uint32(pkt.GroupIndex)
		}
		if int(pkt.GroupIndex) < g.memberCap() && g.member(pkt.GroupIndex) == nil {
			g.setMember(pkt.GroupIndex, pkt.Payload)
		}
		if err := c.accept(pkt.Seq, pkt.Payload); err != nil {
			return err
		}
		return c.tryRecover(pkt.Group, g)
	}
	return c.accept(pkt.Seq, pkt.Payload)
}

// group returns (creating if needed) the reassembly state for a group id.
func (c *PacketConn) group(id uint32) *fecGroup {
	g := c.groups[id]
	if g == nil {
		g = &fecGroup{}
		c.groups[id] = g
	}
	return g
}

func (g *fecGroup) memberCap() int {
	if g.size > 0 {
		return g.size
	}
	return MaxFECGroup
}

func (g *fecGroup) member(i byte) []byte {
	if int(i) < len(g.got) {
		return g.got[int(i)]
	}
	return nil
}

func (g *fecGroup) setMember(i byte, payload []byte) {
	for len(g.got) <= int(i) {
		g.got = append(g.got, nil)
	}
	if g.got[int(i)] == nil {
		g.got[int(i)] = payload
		g.have++
	}
}

// tryRecover reconstructs a group's single missing member once size-1
// members plus parity are in hand, then delivers it as if received.
func (c *PacketConn) tryRecover(id uint32, g *fecGroup) error {
	if g.done || !g.hasParity || g.size == 0 {
		return nil
	}
	if g.have >= g.size {
		g.done = true
		delete(c.groups, id)
		return nil
	}
	if g.have != g.size-1 {
		return nil
	}
	for len(g.got) < g.size {
		g.got = append(g.got, nil)
	}
	missing := -1
	for i := 0; i < g.size; i++ {
		if g.got[i] == nil {
			missing = i
			break
		}
	}
	payload, err := RecoverFromParity(g.got[:g.size], g.parity, g.lenXor)
	if err != nil {
		return err
	}
	g.got[missing] = payload
	g.have++
	g.done = true
	delete(c.groups, id)
	return c.accept(g.startSeq+uint32(missing), payload)
}

// accept delivers a data payload at its stream position: in-order bytes go
// straight to rbuf, future seqs park in pending, stale seqs (duplicates of
// something parity already recovered) are dropped.
func (c *PacketConn) accept(seq uint32, payload []byte) error {
	if seq < c.deliver {
		return nil
	}
	if seq > c.deliver {
		if len(c.pending) >= maxPending {
			return fmt.Errorf("%w: reassembly buffer overflow at seq %d", ErrBadPacket, seq)
		}
		if _, ok := c.pending[seq]; !ok {
			c.pending[seq] = payload
		}
		return nil
	}
	c.rbuf = append(c.rbuf, payload...)
	c.deliver++
	for {
		next, ok := c.pending[c.deliver]
		if !ok {
			return nil
		}
		delete(c.pending, c.deliver)
		c.rbuf = append(c.rbuf, next...)
		c.deliver++
	}
}
