package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/video"
)

// Client implements Algorithm 4 over a transport.Conn: key frames are sent
// without blocking, the updated student parameters are received
// asynchronously, and the client keeps inferring non-key frames on the
// slightly outdated student in the meantime. The updated weights are
// awaited for at most MIN_STRIDE frames (Algorithm 4 lines 15–17).
//
// Each Run has one link goroutine for the network side: it opens the
// session, reads the server's diffs and reports a dead connection. With a
// Dial callback installed, Run is additionally restartable: a dropped
// connection no longer kills the session. The client keeps inferring every
// frame on its stale student (the paper's graceful-degradation story),
// while the link redials with exponential backoff and resumes the
// server-side session through the protocol-v3 Resume handshake — replaying
// only the journaled diffs it missed, falling back to a full checkpoint (or
// a fresh session) when the server can no longer bridge the gap.
type Client struct {
	Cfg     Config
	Student *nn.Student
	// EvalTeacher, when non-nil, is consulted per frame to measure mIoU
	// against the teacher output (§6.3 protocol). It runs client-side in
	// tests; over real deployments it would be absent.
	EvalTeacher interface {
		Infer(video.Frame) []int32
	}
	// SessionID names this session on a multi-session server; zero lets
	// the server assign one. The ID the server actually acknowledged is
	// reported in Result.SessionID.
	SessionID uint64
	// EvalEvery samples the EvalTeacher comparison every n-th frame
	// (§6.3's protocol is 1, the default; higher values cut eval cost in
	// throughput-oriented runs).
	EvalEvery int
	// Adaptive is ignored: every diff names its own codec and stride scale,
	// with or without a link policy. It is kept only because
	// benchmark/run.go sets it.
	Adaptive bool
	// Base, when non-nil, is the shared pretrained parameter set this
	// client holds. Its hash goes out in Hello and Resume, letting the
	// server ship checkpoints relative to it instead of absolute ones.
	// When nil, a Run's first Hello advertises the student Run starts
	// with instead — a client handed the server's base gets a relative
	// checkpoint all the same — and later Hellos and every Resume
	// advertise nothing.
	Base *nn.ParamSet
	// TrackLatency records per-frame wall time into Result.FrameLatencies
	// (one entry per processed frame), feeding p50/p99 latency metrics.
	TrackLatency bool
	// Telemetry, when non-nil, registers live client-side metrics on this
	// registry: frame/key-frame/stale-frame counters and a frame-latency
	// histogram, shared by every client on the registry (fleet aggregates).
	Telemetry *telemetry.Registry

	// Dial, when non-nil, makes the session resumable: after a connection
	// failure Run keeps going and redials through this callback, and a
	// Hello the server sheds is retried on a redialled conn. Nil keeps the
	// legacy fail-fast contract (any connection error ends Run).
	Dial func() (transport.Conn, error)
	// MaxResumeAttempts bounds the redials of one outage, or of one shed
	// admission, before Run gives up and reports the failure (default 8).
	MaxResumeAttempts int
	// ResumeBackoff is the delay before the first redial of an outage or a
	// shed admission, doubled per failed attempt and capped at one second
	// (default 25ms). The initial wait also gives the server time to notice
	// a drop and park the session.
	ResumeBackoff time.Duration

	// Stats populated by Run.
	Result ClientResult

	// tm holds the metric handles resolved from Telemetry at the top of
	// Run; all handles are nil (no-op) when Telemetry is nil.
	tm struct {
		frames    *telemetry.Counter
		keyFrames *telemetry.Counter
		stale     *telemetry.Counter
		latency   *telemetry.Histogram
	}

	baseHashOnce sync.Once
	baseHash     uint64
}

// bindTelemetry resolves the client metric handles (registration is
// idempotent, so fleets of clients share the same series).
func (c *Client) bindTelemetry() {
	if c.Telemetry == nil {
		return
	}
	c.tm.frames = c.Telemetry.Counter("shadowtutor_client_frames_total", "Frames inferred across all clients.")
	c.tm.keyFrames = c.Telemetry.Counter("shadowtutor_client_key_frames_total", "Key frames offloaded to the server across all clients.")
	c.tm.stale = c.Telemetry.Counter("shadowtutor_client_stale_frames_total", "Frames inferred on stale weights while disconnected.")
	c.tm.latency = c.Telemetry.Histogram("shadowtutor_client_frame_seconds", "Per-frame wall time (send + infer + eval + apply).", telemetry.DurationBuckets)
}

// hashBase returns the base hash this client sends in Hello and Resume,
// zero without a Base. It is computed once per client — fleets of clients
// sharing one base each pay it a single time.
func (c *Client) hashBase() uint64 {
	if c.Base == nil {
		return 0
	}
	c.baseHashOnce.Do(func() { c.baseHash = nn.HashParams(c.Base.All()) })
	return c.baseHash
}

// ClientResult summarises a client session.
type ClientResult struct {
	SessionID   uint64 // the ID the server acknowledged in the handshake
	Frames      int
	KeyFrames   int
	Elapsed     time.Duration
	MeanIoU     float64
	EvalFrames  int
	StrideTrace []float64
	// FrameLatencies holds per-frame wall times when TrackLatency is set:
	// everything one loop iteration pays (key-frame send, inference, eval,
	// opportunistic update application).
	FrameLatencies []time.Duration

	// Resilience counters (all zero on a fault-free run).
	Reconnects    int // successful re-attachments after a connection loss
	ResumeReplays int // reconnects recovered via journal replay
	FullResends   int // full checkpoints received after the initial handshake
	StaleFrames   int // frames inferred on stale weights while disconnected
	// RecoveryTimes holds, per reconnect, the wall time from detecting the
	// drop to running with a recovered connection.
	RecoveryTimes []time.Duration
}

// linkError marks a failure of the connection itself (a Recv that died),
// as opposed to a protocol or decode error on a healthy link. Only link
// errors trigger the reconnect path: redialling cannot fix a poison diff
// or a codec mismatch, and would bury the root cause under "gave up after
// N redials".
type linkError struct{ err error }

func (e *linkError) Error() string { return fmt.Sprintf("core: connection failed: %v", e.err) }
func (e *linkError) Unwrap() error { return e.err }

// isLinkError reports whether err came from the transport rather than the
// protocol.
func isLinkError(err error) bool {
	var le *linkError
	return errors.As(err, &le)
}

// rejected is a ResumeAck refusing a Hello or a Resume: ResumeRetry sheds
// or defers it, ResumeReject refuses it for good.
type rejected struct {
	status transport.ResumeStatus
	reason string
}

func (r rejected) Error() string {
	return fmt.Sprintf("core: server answered %v: %s", r.status, r.reason)
}

// refused reports whether err is a ResumeAck with this status.
func refused(err error, status transport.ResumeStatus) bool {
	var r rejected
	return errors.As(err, &r) && r.status == status
}

// runState is Run's side of a session: what the student has applied, the
// key-frame cadence, and the conn key frames go out on.
type runState struct {
	lastApplied    uint64 // highest student-diff Seq applied
	kfSeq          uint64 // key-frame sequence counter
	cad            cadence
	conn           transport.Conn // nil while the link is down
	disconnectedAt time.Time      // when Run last took a link-down event
}

// Run executes the client loop over n frames from src. The student is
// initialised from the server's MsgStudentFull, so callers may pass a
// freshly constructed (untrained) student. Run closes conn, and every conn
// it dials, before it returns.
func (c *Client) Run(conn transport.Conn, src video.Source, n int) error {
	if err := c.Cfg.Validate(); err != nil {
		conn.Close()
		return err
	}
	c.bindTelemetry()
	l := c.connect(conn)
	// No goroutine outlives Run (TestClientLeavesNoGoroutines).
	defer l.stop()
	rs := &runState{cad: newCadence(c.Cfg, nil)}
	for rs.conn == nil { // admission: nothing to infer with before the checkpoint
		if err := c.take(rs, l, true); err != nil {
			return err
		}
	}

	cm := metrics.NewConfusionMatrix(c.Student.Config.NumClasses)
	start := time.Now()
	trackFrames := c.TrackLatency || c.tm.latency != nil
	for i := 0; i < n; i++ {
		var frameStart time.Time
		if trackFrames {
			frameStart = time.Now()
		}
		frame := src.Next()

		if rs.conn == nil { // a recovery lands before the key-frame decision
			if err := c.take(rs, l, false); err != nil {
				return err
			}
		}

		if rs.cad.due() && rs.conn != nil { // key frame
			rs.kfSeq++
			kf := transport.KeyFrame{
				FrameIndex: uint32(frame.Index),
				Image:      frame.Image,
				Label:      frame.Label,
				Seq:        rs.kfSeq,
			}
			if err := rs.conn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)}); err != nil {
				if c.Dial == nil {
					return fmt.Errorf("core: sending key frame: %w", err)
				}
				// Closed, the conn fails the link's Recv too, and the link
				// reports it down.
				rs.conn.Close()
				for rs.conn != nil {
					if err := c.take(rs, l, true); err != nil {
						return err
					}
				}
			} else {
				c.Result.KeyFrames++
				c.tm.keyFrames.Inc()
				rs.cad.sent()
			}
		}

		mask := c.Student.Infer(frame.Image)
		wait := rs.cad.inferred()
		c.tm.frames.Inc()
		if rs.conn == nil {
			c.Result.StaleFrames++
			c.tm.stale.Inc()
		}

		if c.EvalTeacher != nil && (c.EvalEvery <= 1 || i%c.EvalEvery == 0) {
			cm.Add(mask, c.EvalTeacher.Infer(frame))
			c.Result.EvalFrames++
		}

		// WaitUntilComplete at MIN_STRIDE; opportunistic otherwise
		// (Algorithm 4 lines 14–22).
		if rs.conn != nil && rs.cad.pending {
			if err := c.take(rs, l, wait); err != nil {
				return err
			}
		}
		if trackFrames {
			lat := time.Since(frameStart)
			if c.TrackLatency {
				c.Result.FrameLatencies = append(c.Result.FrameLatencies, lat)
			}
			c.tm.latency.Observe(lat.Seconds())
		}
	}

	// Teardown: wait out an update in flight, then say goodbye. An outage
	// now is abandoned when the session is resumable — there are no frames
	// left to serve; without Dial the link reports it as the error it is.
	if rs.conn != nil && rs.cad.pending {
		if err := c.take(rs, l, true); err != nil {
			return err
		}
	}
	if rs.conn != nil {
		_ = rs.conn.Send(transport.Message{Type: transport.MsgShutdown})
	}

	c.Result.Frames = n
	c.Result.Elapsed = time.Since(start)
	c.Result.MeanIoU = cm.MeanIoU()
	c.Result.StrideTrace = rs.cad.trace
	return nil
}

// take acts on one link event, waiting for it when block is set and
// otherwise returning at once when none is waiting. A diff is applied, an
// opened session installed, a lost conn leaves the client inferring on its
// stale student, and an error that ended the link is returned.
func (c *Client) take(rs *runState, l *link, block bool) error {
	var ev event
	if block {
		ev = <-l.events
	} else {
		select {
		case ev = <-l.events:
		default:
			return nil
		}
	}
	switch {
	case ev.diff != nil:
		return c.apply(rs, *ev.diff)
	case ev.up != nil:
		return c.install(rs, ev.up)
	case ev.down:
		rs.conn = nil
		rs.cad.settled()
		rs.disconnectedAt = time.Now()
		return nil
	}
	return ev.err
}

// install catches the student up with a session the link opened — its
// checkpoint, or a resume's replay — and sends key frames on its conn from
// now on.
func (c *Client) install(rs *runState, up *opened) error {
	if up.hello {
		// A new session numbers its diffs and key frames from 1 again.
		rs.lastApplied, rs.kfSeq = 0, 0
		c.Result.SessionID = up.id
	}
	if up.full != nil {
		if err := nn.ApplyNamed(c.Student.Params, up.full); err != nil {
			return err
		}
		c.Student.SetPartial(c.Cfg.Partial)
	}
	for _, d := range up.replay {
		if err := c.apply(rs, d); err != nil {
			return err
		}
	}
	rs.lastApplied = max(rs.lastApplied, up.head)
	if !rs.disconnectedAt.IsZero() { // a reconnect, not the admission
		c.Result.Reconnects++
		if up.full != nil {
			c.Result.FullResends++
		} else {
			c.Result.ResumeReplays++
		}
		c.Result.RecoveryTimes = append(c.Result.RecoveryTimes, time.Since(rs.disconnectedAt))
	}
	rs.conn = up.conn
	return nil
}

func (c *Client) apply(rs *runState, d transport.StudentDiff) error {
	if d.Seq <= rs.lastApplied {
		// Duplicate delivery (a replay overlapping an applied diff): the
		// weights are already current; don't double-count the stride.
		rs.cad.settled()
		return nil
	}
	rs.lastApplied = d.Seq
	return applyDiff(c.Student, &rs.cad, d)
}

// applyDiff lands one student diff on the client (Algorithm 4 lines
// 18–21): the weights it carries, then the stride its metric and stride
// scale set. Diffs land in Seq order, each after its predecessor: the
// student is the reference a relative one was cut against.
func applyDiff(st *nn.Student, cad *cadence, d transport.StudentDiff) error {
	if err := d.Resolve(st.Params); err != nil {
		return err
	}
	if err := nn.ApplyNamed(st.Params, d.Params); err != nil {
		return err
	}
	cad.applied(d.Metric, d.StrideScale)
	return nil
}

// DefaultResumeBackoff is the delay before an outage's first redial when
// Client.ResumeBackoff is unset. Chaos twins use it to price a recovery on
// the simulation clock.
const DefaultResumeBackoff = 25 * time.Millisecond

// maxResumeBackoff caps the exponential redial delay.
const maxResumeBackoff = time.Second

// maxReplayDiffs bounds how many replayed diffs a client will accept in
// one resume — journals are bounded server-side, so anything larger is a
// protocol error, not a backlog.
const maxReplayDiffs = 4096

// errStopped ends a link that Run stopped; no one reads it.
var errStopped = errors.New("core: link stopped")

// link is the one goroutine of a Run. It opens the session on the conn Run
// was handed, delivers the diffs that arrive, and reports a dead conn; with
// Dial set it then redials and reopens the session, through one backoff
// loop that serves a shed admission too. It never writes the student or
// Result, which are Run's: what it learns reaches Run as events.
type link struct {
	c      *Client
	events chan event    // unbuffered: an event is delivered once Run took it
	quit   chan struct{} // closed by stop
	done   chan struct{} // closed when the goroutine exits
	s      session       // the goroutine's own
	// start is the student Run started with, until a Hello opens the
	// first session of a client without a Base: that Hello advertises it
	// and decodes the checkpoint against it. Run writes the student only
	// once it takes that session.
	start *nn.ParamSet

	mu   sync.Mutex
	conn transport.Conn // the conn the goroutine holds, which stop closes
}

// event is one report from the link, in wire order: a diff off the live
// conn, a session opened on a new conn, the live conn lost (only with
// Dial), or the error that ended the link.
type event struct {
	diff *transport.StudentDiff
	up   *opened
	down bool
	err  error
}

// opened hands Run a session the link opened on conn, with what catches the
// student up: the checkpoint of a Hello or of a resume's full fallback, or
// a resume's journal replay.
type opened struct {
	conn   transport.Conn
	hello  bool   // a new session
	id     uint64 // its ID, with hello
	head   uint64 // the server's last diff Seq
	full   []*nn.Parameter
	replay []transport.StudentDiff // oldest first
}

// session is what the link knows of the server-side session: what a
// Resume names.
type session struct {
	id, epoch uint64
	last      uint64 // Seq of the last diff the link delivered
	resumable bool   // acknowledged under a nonzero ID: a redial resumes it
}

// connect starts the link on conn.
func (c *Client) connect(conn transport.Conn) *link {
	l := &link{c: c, events: make(chan event), quit: make(chan struct{}), done: make(chan struct{}), conn: conn}
	go l.run(conn)
	return l
}

// stop ends the link and returns once it has exited: closing the conn it
// holds unblocks a Recv, and quit interrupts a backoff wait or a delivery.
func (l *link) stop() {
	l.mu.Lock()
	close(l.quit)
	l.conn.Close()
	l.mu.Unlock()
	<-l.done
}

// adopt makes conn the one stop closes; false once stop has run, and the
// caller closes conn itself.
func (l *link) adopt(conn transport.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.quit:
		return false
	default:
		l.conn = conn
		return true
	}
}

// emit delivers ev to Run; false once Run has stopped the link.
func (l *link) emit(ev event) bool {
	select {
	case l.events <- ev:
		return true
	case <-l.quit:
		return false
	}
}

// run is the link goroutine: admit on conn, then deliver diffs until the
// conn dies and, with Dial set, reopen the session on a redialled one.
// Without Dial, a shed admission or a dead conn ends it.
func (l *link) run(conn transport.Conn) {
	defer close(l.done)
	l.s.id = l.c.SessionID
	if l.c.Base == nil {
		l.start = l.c.Student.Params
	}
	up, err := l.open(conn)
	if err != nil && (l.c.Dial == nil || !refused(err, transport.ResumeRetry)) {
		l.emit(event{err: err})
		return
	}
	for {
		if err != nil { // a shed Hello or a lost conn
			conn.Close()
			if up, err = l.redial(err); err != nil {
				l.emit(event{err: err})
				return
			}
			conn = up.conn
		}
		if !l.emit(event{up: up}) {
			return
		}
		up = nil // Run has the checkpoint or replay: don't pin it while the conn lives
		if err = l.read(conn); l.c.Dial == nil || !isLinkError(err) {
			l.emit(event{err: err})
			return
		}
		if !l.emit(event{down: true}) {
			return
		}
	}
}

// read delivers the diffs that arrive on conn until it fails: a link error
// when the conn dies, a protocol error — a poison diff fails fast — when it
// carries anything else.
func (l *link) read(conn transport.Conn) error {
	for {
		m, err := conn.Recv()
		if err != nil {
			return &linkError{err: err}
		}
		if m.Type != transport.MsgStudentDiff {
			return fmt.Errorf("core: expected StudentDiff, got %v", m.Type)
		}
		d, err := transport.DecodeStudentDiff(m.Body)
		if err != nil {
			return err
		}
		if !l.emit(event{diff: &d}) {
			return errStopped
		}
		l.s.last = d.Seq
	}
}

// redial is the one backoff loop, for a shed admission and an outage alike:
// up to MaxResumeAttempts redials, the first after ResumeBackoff and each
// later one after twice the wait before it, each opening the session on
// the new conn. cause is why the last conn failed.
func (l *link) redial(cause error) (*opened, error) {
	attempts, backoff := l.c.MaxResumeAttempts, l.c.ResumeBackoff
	if attempts <= 0 {
		attempts = 8
	}
	if backoff <= 0 {
		backoff = DefaultResumeBackoff
	}
	for range attempts {
		select {
		case <-time.After(backoff):
		case <-l.quit:
			return nil, errStopped
		}
		backoff = min(2*backoff, maxResumeBackoff)
		conn, err := l.c.Dial()
		if err != nil {
			cause = err
			continue
		}
		if !l.adopt(conn) {
			conn.Close()
			return nil, errStopped
		}
		up, err := l.open(conn)
		if err == nil {
			return up, nil
		}
		conn.Close()
		cause = err
	}
	return nil, fmt.Errorf("core: gave up after %d redials: %w", attempts, cause)
}

// open opens the session on conn: a Resume of the one the link holds, or a
// Hello. A Resume the server refuses for good (TTL eviction, restart)
// leaves the next attempt a Hello for a fresh session.
func (l *link) open(conn transport.Conn) (*opened, error) {
	if !l.s.resumable {
		return l.hello(conn)
	}
	up, err := l.resume(conn)
	if refused(err, transport.ResumeReject) {
		l.s = session{}
	}
	return up, err
}

// hello runs one Hello exchange on conn — Hello, ack (or a rejection),
// checkpoint — asking for the link's session ID, and returns the session it
// opened.
func (l *link) hello(conn transport.Conn) (*opened, error) {
	base, baseHash := l.c.Base, l.c.hashBase()
	if l.start != nil {
		base, baseHash = l.start, nn.HashParams(l.start.All())
	}
	h := transport.Hello{
		Version:   transport.Version,
		NumClass:  uint16(l.c.Student.Config.NumClasses),
		Partial:   l.c.Cfg.Partial,
		SessionID: l.s.id,
		BaseHash:  baseHash,
	}
	if err := conn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(h)}); err != nil {
		return nil, fmt.Errorf("core: client hello: %w", err)
	}
	m, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: client hello ack recv: %w", err)
	}
	if m.Type == transport.MsgResumeAck {
		ack, err := transport.DecodeResumeAck(m.Body)
		if err != nil {
			return nil, err
		}
		return nil, rejected{status: ack.Status, reason: ack.Reason}
	}
	if m.Type != transport.MsgHello {
		return nil, fmt.Errorf("core: expected Hello ack, got %v", m.Type)
	}
	ack, err := transport.DecodeHello(m.Body)
	if err != nil {
		return nil, err
	}
	if m, err = conn.Recv(); err != nil {
		return nil, fmt.Errorf("core: client initial student recv: %w", err)
	}
	if m.Type != transport.MsgStudentFull {
		return nil, fmt.Errorf("core: expected StudentFull, got %v", m.Type)
	}
	params, err := DecodeCheckpointBody(m.Body, base)
	if err != nil {
		return nil, err
	}
	l.start = nil
	l.s = session{id: ack.SessionID, epoch: ack.Epoch, resumable: ack.SessionID != 0}
	return &opened{conn: conn, hello: true, id: ack.SessionID, full: params}, nil
}

// resume runs one Resume exchange on conn, asking for the diffs after the
// last one the link delivered — Run applied it before it takes this
// session, since events reach it in order.
func (l *link) resume(conn transport.Conn) (*opened, error) {
	req := transport.Resume{SessionID: l.s.id, Epoch: l.s.epoch, LastDiffSeq: l.s.last, BaseHash: l.c.hashBase()}
	if err := conn.Send(transport.Message{Type: transport.MsgResume, Body: transport.EncodeResume(req)}); err != nil {
		return nil, fmt.Errorf("core: sending resume: %w", err)
	}
	m, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: resume ack recv: %w", err)
	}
	if m.Type != transport.MsgResumeAck {
		return nil, fmt.Errorf("core: expected ResumeAck, got %v", m.Type)
	}
	ack, err := transport.DecodeResumeAck(m.Body)
	if err != nil {
		return nil, err
	}
	up := &opened{conn: conn, head: ack.HeadSeq}
	switch ack.Status {
	case transport.ResumeFull:
		if m, err = conn.Recv(); err != nil {
			return nil, fmt.Errorf("core: resume checkpoint recv: %w", err)
		}
		if m.Type != transport.MsgStudentFull {
			return nil, fmt.Errorf("core: expected StudentFull, got %v", m.Type)
		}
		if up.full, err = DecodeCheckpointBody(m.Body, l.c.Base); err != nil {
			return nil, err
		}
	case transport.ResumeReplay:
		if ack.NumDiffs > maxReplayDiffs {
			return nil, fmt.Errorf("core: implausible replay of %d diffs", ack.NumDiffs)
		}
		up.replay = make([]transport.StudentDiff, ack.NumDiffs)
		for i := range up.replay {
			if m, err = conn.Recv(); err != nil {
				return nil, fmt.Errorf("core: replay diff recv: %w", err)
			}
			if m.Type != transport.MsgStudentDiff {
				return nil, fmt.Errorf("core: expected replayed StudentDiff, got %v", m.Type)
			}
			if up.replay[i], err = transport.DecodeStudentDiff(m.Body); err != nil {
				return nil, err
			}
		}
	default:
		return nil, rejected{status: ack.Status, reason: ack.Reason}
	}
	l.s.epoch, l.s.last = ack.Epoch, max(l.s.last, ack.HeadSeq)
	return up, nil
}
