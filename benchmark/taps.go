package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

// diffEvent is one StudentDiff seen by a client: when Recv returned it and
// which key frame it answers.
type diffEvent struct {
	seq        uint64
	frameIndex uint32
	at         time.Time
}

// clientTaps is the always-on, client-side measurement of one session: the
// Send entry time of every key frame and the Recv return time of every
// student diff, across every connection the session rides. Key-frame round
// trips, the one-diff-per-key-frame check and the scripted link cut all
// hang off these two timestamps.
type clientTaps struct {
	adaptive bool // diffs are adaptive envelopes, not raw StudentDiffs

	// cut, when non-nil, is the session's first connection; it is armed to
	// fail halfway through diff number cutAt.
	cut   *cutConn
	cutAt int

	mu      sync.Mutex
	kfSend  []time.Time
	diffs   []diffEvent
	badDiff error // first diff that failed to decode
}

// newClientTaps preallocates for the most key frames n frames can produce.
func newClientTaps(frames, minStride int, adaptive bool) *clientTaps {
	max := frames/minStride + 2
	return &clientTaps{
		adaptive: adaptive,
		kfSend:   make([]time.Time, 0, max),
		diffs:    make([]diffEvent, 0, max),
	}
}

// wrap taps one connection of the session.
func (t *clientTaps) wrap(c transport.Conn) transport.Conn { return &clientTap{Conn: c, t: t} }

type clientTap struct {
	transport.Conn
	t *clientTaps
}

func (c *clientTap) Send(m transport.Message) error {
	if m.Type == transport.MsgKeyFrame {
		now := time.Now()
		c.t.mu.Lock()
		c.t.kfSend = append(c.t.kfSend, now)
		c.t.mu.Unlock()
	}
	return c.Conn.Send(m)
}

func (c *clientTap) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil || m.Type != transport.MsgStudentDiff {
		return m, err
	}
	now := time.Now()
	// Decoding happens after the timestamp, so it is outside the round
	// trip; it costs one extra parse of a diff per key frame.
	var d transport.StudentDiff
	var derr error
	if c.t.adaptive {
		d, _, derr = core.DecodeAdaptiveDiff(m.Body)
	} else {
		d, derr = transport.DecodeStudentDiff(m.Body)
	}
	c.t.mu.Lock()
	if derr != nil && c.t.badDiff == nil {
		c.t.badDiff = derr
	}
	c.t.diffs = append(c.t.diffs, diffEvent{seq: d.Seq, frameIndex: d.FrameIndex, at: now})
	n := len(c.t.diffs)
	c.t.mu.Unlock()
	if c.t.cut != nil && n == c.t.cutAt-1 {
		// Nothing but the next diff flows down this link now, and raw
		// diffs all have this one's size: the cut lands mid-body.
		c.t.cut.arm(len(m.Body) / 2)
	}
	return m, nil
}

// roundTrips pairs the k-th key frame sent with the diff numbered k and
// returns the round-trip times in ms, plus every way the pairing broke.
func (t *clientTaps) roundTrips() (rtt []float64, problems []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.badDiff != nil {
		problems = append(problems, fmt.Sprintf("undecodable diff: %v", t.badDiff))
	}
	var last uint64
	for _, d := range t.diffs {
		if d.seq <= last {
			problems = append(problems, fmt.Sprintf("diff seq %d after %d: not strictly increasing", d.seq, last))
			continue
		}
		last = d.seq
		if d.seq < 1 || int(d.seq) > len(t.kfSend) {
			problems = append(problems, fmt.Sprintf("diff seq %d answers no key frame (%d sent)", d.seq, len(t.kfSend)))
			continue
		}
		rtt = append(rtt, ms(d.at.Sub(t.kfSend[d.seq-1])))
	}
	return rtt, problems
}

var errScriptedCut = errors.New("benchmark: scripted link cut")

// cutConn is a client-side net.Conn that, once armed, lets budget more
// bytes through and then closes the link under the reader.
type cutConn struct {
	net.Conn
	budget atomic.Int64 // bytes still readable; negative = not armed
}

func newCutConn(c net.Conn) *cutConn {
	cc := &cutConn{Conn: c}
	cc.budget.Store(-1)
	return cc
}

func (c *cutConn) arm(n int) { c.budget.Store(int64(n)) }

func (c *cutConn) Read(p []byte) (int, error) {
	left := c.budget.Load()
	if left == 0 {
		c.Conn.Close()
		return 0, errScriptedCut
	}
	if left > 0 && int64(len(p)) > left {
		p = p[:left]
	}
	n, err := c.Conn.Read(p)
	if left > 0 {
		c.budget.Store(left - int64(n))
	}
	return n, err
}

// serverTap is the traced pass's server-side tap on one accepted
// connection. serve.bindLink type-asserts the conn for LinkObservation and
// SetFECGroup, so the tap forwards both: a plain wrapper would silently
// show the link policy a clear link.
type serverTap struct {
	inner *transport.TCPConn
	tr    *trace
	sess  *sessionTrace // known once the opening Hello or Resume is read
}

func (s *serverTap) Recv() (transport.Message, error) {
	m, err := s.inner.Recv()
	if err != nil {
		return m, err
	}
	now := time.Now()
	switch m.Type {
	case transport.MsgHello:
		if h, err := transport.DecodeHello(m.Body); err == nil {
			s.sess = s.tr.session(h.SessionID)
		}
		if s.sess != nil {
			s.sess.mu.Lock()
			s.sess.helloRecv = now
			s.sess.mu.Unlock()
		}
	case transport.MsgResume:
		if r, err := transport.DecodeResume(m.Body); err == nil {
			s.sess = s.tr.session(r.SessionID)
		}
	case transport.MsgKeyFrame:
		if s.sess != nil {
			s.sess.mu.Lock()
			s.sess.kfRecv = append(s.sess.kfRecv, now)
			s.sess.mu.Unlock()
		}
	}
	return m, nil
}

func (s *serverTap) Send(m transport.Message) error {
	if s.sess != nil && m.Type == transport.MsgStudentDiff {
		now := time.Now()
		s.sess.mu.Lock()
		// A diff sent with no unanswered key frame is a journal replay on
		// a resumed connection, not a new answer.
		if len(s.sess.diffSend) < len(s.sess.kfRecv) {
			s.sess.diffSend = append(s.sess.diffSend, now)
		}
		s.sess.mu.Unlock()
	}
	err := s.inner.Send(m)
	if s.sess != nil && m.Type == transport.MsgStudentFull {
		now := time.Now()
		s.sess.mu.Lock()
		if s.sess.fullSent.IsZero() {
			s.sess.fullSent = now
		}
		s.sess.mu.Unlock()
	}
	return err
}

func (s *serverTap) Close() error { return s.inner.Close() }

func (s *serverTap) LinkObservation() netsim.LinkObservation { return s.inner.LinkObservation() }

func (s *serverTap) SetFECGroup(k int) { s.inner.SetFECGroup(k) }

// costedOracle labels with the Oracle and pays for a CNN teacher: the CNN
// forward runs for its cost and its mask is discarded. It gives duo-paced
// a teacher with a real inference bill while keeping the Oracle's labels,
// which the student can actually reach THRESHOLD against.
type costedOracle struct {
	oracle *teacher.Oracle
	cnn    *teacher.CNNTeacher
}

func newCostedOracle(seed int64) *costedOracle {
	return &costedOracle{oracle: teacher.NewOracle(seed), cnn: teacher.NewCNNTeacher(seed)}
}

func (c *costedOracle) Name() string { return "costed-oracle" }

func (c *costedOracle) RequiresLabel() bool { return true }

func (c *costedOracle) SetBackend(b tensor.Backend) { c.cnn.SetBackend(b) }

func (c *costedOracle) Infer(f video.Frame) []int32 {
	c.cnn.Infer(f)
	return c.oracle.Infer(f)
}

func (c *costedOracle) InferBatch(frames []video.Frame) [][]int32 {
	c.cnn.InferBatch(frames)
	return c.oracle.InferBatch(frames)
}

// timedTeacher is the traced pass's wrapper around a shard's teacher. The
// serving tier probes its teacher for InferBatch, RequiresLabel and
// SetBackend, so all three are forwarded.
type timedTeacher struct {
	inner teacher.BatchInferrer
	tr    *trace
}

func (t *timedTeacher) Name() string { return t.inner.Name() }

func (t *timedTeacher) RequiresLabel() bool {
	lr, ok := t.inner.(teacher.LabelRequirer)
	return ok && lr.RequiresLabel()
}

func (t *timedTeacher) SetBackend(b tensor.Backend) {
	if sb, ok := t.inner.(interface{ SetBackend(tensor.Backend) }); ok {
		sb.SetBackend(b)
	}
}

func (t *timedTeacher) Infer(f video.Frame) []int32 {
	start := time.Now()
	mask := t.inner.Infer(f)
	t.tr.teacherCall(start, time.Now(), f.Index)
	return mask
}

func (t *timedTeacher) InferBatch(frames []video.Frame) [][]int32 {
	start := time.Now()
	masks := t.inner.InferBatch(frames)
	end := time.Now()
	for _, f := range frames {
		t.tr.teacherCall(start, end, f.Index)
	}
	return masks
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
