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

// Client implements Algorithm 4 over a transport.Conn with real goroutines:
// key frames are sent without blocking, the updated student parameters are
// received asynchronously, and the client keeps inferring non-key frames on
// the slightly outdated student in the meantime. The updated weights are
// awaited for at most MIN_STRIDE frames (Algorithm 4 lines 15–17).
//
// With a Dial callback installed, Run is additionally restartable: a
// dropped connection no longer kills the session. The client keeps
// inferring every frame on its stale student (the paper's graceful-
// degradation story), while a background goroutine redials with
// exponential backoff and resumes the server-side session through the
// protocol-v3 Resume handshake — replaying only the journaled diffs it
// missed, falling back to a full checkpoint (or a fresh session) when the
// server can no longer bridge the gap.
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
	Base *nn.ParamSet
	// TrackLatency records per-frame wall time into Result.FrameLatencies
	// (one entry per processed frame), feeding p50/p99 latency metrics.
	TrackLatency bool
	// Telemetry, when non-nil, registers live client-side metrics on this
	// registry: frame/key-frame/stale-frame counters and a frame-latency
	// histogram, shared by every client on the registry (fleet aggregates).
	Telemetry *telemetry.Registry

	// Dial, when non-nil, makes the session resumable: after a connection
	// failure Run keeps going and redials through this callback. Nil keeps
	// the legacy fail-fast contract (any connection error ends Run).
	Dial func() (transport.Conn, error)
	// MaxResumeAttempts bounds redials per outage before Run gives up and
	// reports the failure (default 8).
	MaxResumeAttempts int
	// ResumeBackoff is the delay before the first redial of an outage,
	// doubled per failed attempt and capped at one second (default 25ms).
	// The initial wait also gives the server time to notice the drop and
	// park the session.
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

// asyncRecv is the handle returned by the non-blocking receive
// (FromServerAsync): a one-shot channel carrying the decoded diff.
type asyncRecv struct {
	ch  chan transport.StudentDiff
	err chan error
}

// linkError marks a failure of the connection itself (a Recv that died),
// as opposed to a protocol or decode error on a healthy link. Only link
// errors trigger the reconnect path: redialling cannot fix a poison diff
// or a codec mismatch, and would bury the root cause under "gave up after
// N reconnect attempts".
type linkError struct{ err error }

func (e *linkError) Error() string { return fmt.Sprintf("core: connection failed: %v", e.err) }
func (e *linkError) Unwrap() error { return e.err }

// isLinkError reports whether err came from the transport rather than the
// protocol.
func isLinkError(err error) bool {
	var le *linkError
	return errors.As(err, &le)
}

// diffReceiver owns the dedicated receive goroutine of one connection. It
// is pull-driven: the client queues an asyncRecv handle per expected diff,
// and the goroutine decodes into it. stop is close-driven and
// deterministic — it never leaves the goroutine parked in Recv.
type diffReceiver struct {
	conn transport.Conn
	reqs chan asyncRecv
	done chan struct{}
}

func (c *Client) startReceiver(conn transport.Conn) *diffReceiver {
	r := &diffReceiver{conn: conn, reqs: make(chan asyncRecv, 1), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for h := range r.reqs {
			m, err := conn.Recv()
			if err != nil {
				h.err <- &linkError{err: err}
				return
			}
			if m.Type != transport.MsgStudentDiff {
				h.err <- fmt.Errorf("core: expected StudentDiff, got %v", m.Type)
				return
			}
			d, err := transport.DecodeStudentDiff(m.Body)
			if err != nil {
				h.err <- err
				return
			}
			h.ch <- d
		}
	}()
	return r
}

// stop shuts the receiver down deterministically. force closes the
// connection, which unblocks an in-flight Recv; it must be set whenever a
// handle may still be pending (the clean path drains first and keeps the
// conn open for the Shutdown message).
func (r *diffReceiver) stop(force bool) {
	close(r.reqs)
	if force {
		r.conn.Close()
	}
	<-r.done
}

// recovered is the hand-off from the background reconnect goroutine: a
// fresh connection plus the state needed to catch the student up.
type recovered struct {
	conn    transport.Conn
	epoch   uint64
	headSeq uint64
	diffs   []transport.StudentDiff // journal replay suffix, oldest first
	full    []*nn.Parameter         // full checkpoint (ResumeFull or fresh fallback)
	fresh   bool                    // recovered via a fresh Hello (new session)
	session uint64                  // session ID when fresh
	err     error                   // recovery gave up (or was cancelled)
}

// dialCanceler lets Run abort an in-flight recovery deterministically: it
// interrupts backoff sleeps and closes whatever connection the recovery
// goroutine currently holds.
type dialCanceler struct {
	mu      sync.Mutex
	conn    transport.Conn
	stopped bool
	quit    chan struct{}
}

func newDialCanceler() *dialCanceler {
	return &dialCanceler{quit: make(chan struct{})}
}

// adopt registers the recovery goroutine's current conn; false means the
// run was cancelled and the caller must close the conn and bail.
func (k *dialCanceler) adopt(conn transport.Conn) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.stopped {
		return false
	}
	k.conn = conn
	return true
}

func (k *dialCanceler) release() {
	k.mu.Lock()
	k.conn = nil
	k.mu.Unlock()
}

func (k *dialCanceler) cancel() {
	k.mu.Lock()
	if !k.stopped {
		k.stopped = true
		close(k.quit)
		if k.conn != nil {
			k.conn.Close()
		}
	}
	k.mu.Unlock()
}

// runState carries the per-Run session identity, key-frame cadence and
// connection machinery.
type runState struct {
	sessionID   uint64
	epoch       uint64
	lastApplied uint64 // highest student-diff Seq applied
	kfSeq       uint64 // key-frame sequence counter
	cad         cadence

	link     *diffReceiver
	inflight *asyncRecv

	recovering     chan recovered
	recoverDone    chan struct{}
	cancel         *dialCanceler
	disconnectedAt time.Time
}

// Run executes the client loop over n frames from src. The student is
// initialised from the server's MsgStudentFull, so callers may pass a
// freshly constructed (untrained) student.
func (c *Client) Run(conn transport.Conn, src video.Source, n int) error {
	if err := c.Cfg.Validate(); err != nil {
		return err
	}
	rs := &runState{cad: newCadence(c.Cfg, nil)}
	c.bindTelemetry()
	conn, err := c.admit(conn, rs)
	if err != nil {
		return err
	}
	rs.link = c.startReceiver(conn)

	// Deterministic teardown on every exit path: no receiver or recovery
	// goroutine may outlive Run (asserted by TestClientLeavesNoGoroutines).
	defer func() {
		if rs.cancel != nil {
			rs.cancel.cancel()
		}
		if rs.recoverDone != nil {
			<-rs.recoverDone
			select {
			case r := <-rs.recovering:
				if r.conn != nil {
					r.conn.Close()
				}
			default:
			}
		}
		if rs.link != nil {
			rs.link.stop(rs.inflight != nil)
			rs.link = nil
		}
	}()

	cm := metrics.NewConfusionMatrix(c.Student.Config.NumClasses)
	start := time.Now()

	// tryApply checks the in-flight receive; block=true waits for it
	// (WaitUntilComplete). On success the diff is applied and the handle
	// cleared.
	tryApply := func(block bool) error {
		if rs.inflight == nil {
			return nil
		}
		if block {
			select {
			case d := <-rs.inflight.ch:
				rs.inflight = nil
				return c.apply(rs, d)
			case err := <-rs.inflight.err:
				return err
			}
		}
		select {
		case d := <-rs.inflight.ch:
			rs.inflight = nil
			return c.apply(rs, d)
		case err := <-rs.inflight.err:
			return err
		default:
			return nil
		}
	}

	// drop tears the dead link down and, when a Dial callback is
	// installed, starts the background recovery; without one it returns
	// the fatal cause (the legacy contract).
	drop := func(cause error) error {
		if rs.link != nil {
			rs.link.stop(true)
			rs.link = nil
		}
		rs.inflight = nil
		rs.cad.settled()
		if c.Dial == nil {
			return cause
		}
		rs.disconnectedAt = time.Now()
		rs.recovering = make(chan recovered, 1)
		rs.recoverDone = make(chan struct{})
		rs.cancel = newDialCanceler()
		go c.recover(rs.sessionID, rs.epoch, rs.lastApplied, rs.recovering, rs.recoverDone, rs.cancel)
		return nil
	}

	// applyRecovery installs a recovered connection: catches the student
	// up (replay suffix or full checkpoint), restarts the receiver and
	// clears the outage.
	applyRecovery := func(r recovered) error {
		if r.err != nil {
			return r.err
		}
		if r.fresh {
			rs.sessionID = r.session
			c.Result.SessionID = r.session
			rs.lastApplied = 0
			rs.kfSeq = 0 // a fresh session numbers key frames from 1 again
		}
		rs.epoch = r.epoch
		if r.full != nil {
			if err := nn.ApplyNamed(c.Student.Params, r.full); err != nil {
				r.conn.Close()
				return err
			}
			rs.lastApplied = r.headSeq
			c.Result.FullResends++
		} else {
			for _, d := range r.diffs {
				if err := c.apply(rs, d); err != nil {
					r.conn.Close()
					return err
				}
			}
			if r.headSeq > rs.lastApplied {
				rs.lastApplied = r.headSeq
			}
			c.Result.ResumeReplays++
		}
		c.Result.Reconnects++
		c.Result.RecoveryTimes = append(c.Result.RecoveryTimes, time.Since(rs.disconnectedAt))
		rs.link = c.startReceiver(r.conn)
		rs.recovering = nil
		rs.recoverDone = nil
		rs.cancel = nil
		return nil
	}

	trackFrames := c.TrackLatency || c.tm.latency != nil
	for i := 0; i < n; i++ {
		var frameStart time.Time
		if trackFrames {
			frameStart = time.Now()
		}
		frame := src.Next()

		if rs.recovering != nil {
			select {
			case r := <-rs.recovering:
				<-rs.recoverDone
				if err := applyRecovery(r); err != nil {
					return err
				}
			default:
			}
		}

		if rs.cad.due() && rs.link != nil { // key frame
			rs.kfSeq++
			kf := transport.KeyFrame{
				FrameIndex: uint32(frame.Index),
				Image:      frame.Image,
				Label:      frame.Label,
				Seq:        rs.kfSeq,
			}
			err := rs.link.conn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)})
			if err != nil {
				if err := drop(fmt.Errorf("core: sending key frame: %w", err)); err != nil {
					return err
				}
			} else {
				c.Result.KeyFrames++
				c.tm.keyFrames.Inc()
				h := asyncRecv{ch: make(chan transport.StudentDiff, 1), err: make(chan error, 1)}
				rs.link.reqs <- h
				rs.inflight = &h
				rs.cad.sent()
			}
		}

		mask, _ := c.Student.Infer(frame.Image)
		wait := rs.cad.inferred()
		c.tm.frames.Inc()
		if rs.link == nil {
			c.Result.StaleFrames++
			c.tm.stale.Inc()
		}

		if c.EvalTeacher != nil && (c.EvalEvery <= 1 || i%c.EvalEvery == 0) {
			cm.Add(mask, c.EvalTeacher.Infer(frame))
			c.Result.EvalFrames++
		}

		// WaitUntilComplete at MIN_STRIDE; opportunistic otherwise
		// (Algorithm 4 lines 14–22). Only a dead link is recoverable; a
		// decode or apply failure on a healthy connection is a protocol bug
		// that redialling cannot fix.
		if err := tryApply(wait); err != nil {
			if !isLinkError(err) {
				return err
			}
			if err := drop(err); err != nil {
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

	// Teardown: drain any outstanding update so the receiver goroutine can
	// exit cleanly, then say goodbye. An outage at this point is simply
	// abandoned when the session is resumable — there are no frames left
	// to serve (the deferred cleanup cancels the recovery goroutine); the
	// legacy fail-fast contract (no Dial) still surfaces the error, as do
	// protocol failures on a healthy link.
	if rs.link != nil {
		if err := tryApply(true); err != nil {
			rs.link.stop(true)
			rs.link = nil
			rs.inflight = nil
			if c.Dial == nil || !isLinkError(err) {
				return err
			}
		} else {
			_ = rs.link.conn.Send(transport.Message{Type: transport.MsgShutdown})
			rs.link.stop(false)
			rs.link = nil
		}
	}

	c.Result.Frames = n
	c.Result.Elapsed = time.Since(start)
	c.Result.MeanIoU = cm.MeanIoU()
	c.Result.StrideTrace = rs.cad.trace
	return nil
}

// admit runs the initial handshake, absorbing load-shed rejections: a
// sharded server (internal/fabric) under pressure answers the Hello with a
// retryable reject instead of a session, and a client with a Dial callback
// backs off and redials — the admission-control loop of the router's
// watermark shedding. Clients without Dial keep the fail-fast contract.
// Ownership: when admit fails without entering the retry loop the initial
// conn stays caller-owned (the legacy contract — Run's caller closes it);
// every conn admit itself opened is closed on failure. The returned
// connection completed the handshake.
func (c *Client) admit(conn transport.Conn, rs *runState) (transport.Conn, error) {
	err := c.handshake(conn, rs)
	if err == nil {
		return conn, nil
	}
	if c.Dial == nil || !isAdmissionRetry(err) {
		return nil, err
	}
	attempts, backoff := c.redialBudget()
	for a := 0; a < attempts; a++ {
		if conn != nil {
			conn.Close()
			conn = nil
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, maxResumeBackoff)
		nc, derr := c.Dial()
		if derr != nil {
			// A failed redial consumes an attempt; the server may still be
			// draining its accept backlog under the same pressure that shed
			// us. Dial contracts return a nil conn with the error.
			err = fmt.Errorf("core: redial after admission reject: %w", derr)
			continue
		}
		conn = nc
		if err = c.handshake(conn, rs); err == nil {
			return conn, nil
		}
		if !isAdmissionRetry(err) {
			conn.Close()
			return nil, err
		}
	}
	if conn != nil {
		conn.Close()
	}
	return nil, fmt.Errorf("core: gave up after %d admission attempts: %w", attempts, err)
}

// errAdmissionRetry marks a retryable server-side load shed of a fresh
// Hello (transport.ResumeRetry reused as the admission verdict).
type errAdmissionRetry struct{ reason string }

func (e errAdmissionRetry) Error() string {
	return fmt.Sprintf("core: admission deferred: %s", e.reason)
}

func isAdmissionRetry(err error) bool {
	var ar errAdmissionRetry
	return errors.As(err, &ar)
}

// helloReject classifies a MsgResumeAck received where a Hello ack was
// expected: the server shed or refused the session at admission.
func helloReject(body []byte) error {
	ack, err := transport.DecodeResumeAck(body)
	if err != nil {
		return err
	}
	if ack.Status == transport.ResumeRetry {
		return errAdmissionRetry{reason: ack.Reason}
	}
	return fmt.Errorf("core: session refused at admission: %s", ack.Reason)
}

// hello runs one fresh Hello exchange on conn — Hello, ack (or an admission
// reject), full checkpoint — and returns the ack and the decoded checkpoint
// without touching the student or Result, so the recovery goroutine can run
// it too: weight mutation stays with whoever applies the params.
func (c *Client) hello(conn transport.Conn, sessionID uint64) (ack transport.Hello, params []*nn.Parameter, err error) {
	h := transport.Hello{
		Version:   transport.Version,
		NumClass:  uint16(c.Student.Config.NumClasses),
		Partial:   c.Cfg.Partial,
		SessionID: sessionID,
		BaseHash:  c.hashBase(),
	}
	if err := conn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(h)}); err != nil {
		return ack, nil, fmt.Errorf("core: client hello: %w", err)
	}
	m, err := conn.Recv()
	if err != nil {
		return ack, nil, fmt.Errorf("core: client hello ack recv: %w", err)
	}
	if m.Type == transport.MsgResumeAck {
		return ack, nil, helloReject(m.Body)
	}
	if m.Type != transport.MsgHello {
		return ack, nil, fmt.Errorf("core: expected Hello ack, got %v", m.Type)
	}
	if ack, err = transport.DecodeHello(m.Body); err != nil {
		return ack, nil, err
	}
	if m, err = conn.Recv(); err != nil {
		return ack, nil, fmt.Errorf("core: client initial student recv: %w", err)
	}
	if m.Type != transport.MsgStudentFull {
		return ack, nil, fmt.Errorf("core: expected StudentFull, got %v", m.Type)
	}
	params, err = DecodeCheckpointBody(m.Body, c.Base)
	return ack, params, err
}

// handshake opens the session on conn: a hello exchange under the
// requested SessionID, then the initial checkpoint applied to the student.
func (c *Client) handshake(conn transport.Conn, rs *runState) error {
	ack, params, err := c.hello(conn, c.SessionID)
	if err != nil {
		return err
	}
	rs.sessionID = ack.SessionID
	rs.epoch = ack.Epoch
	c.Result.SessionID = ack.SessionID
	if err := nn.ApplyNamed(c.Student.Params, params); err != nil {
		return err
	}
	c.Student.SetPartial(c.Cfg.Partial)
	return nil
}

func (c *Client) apply(rs *runState, d transport.StudentDiff) error {
	if d.Seq <= rs.lastApplied {
		// Duplicate delivery (a replay overlapping an applied diff): the
		// weights are already current; don't double-count the stride.
		rs.cad.settled()
		return nil
	}
	// Diffs reach here in Seq order, each after its predecessor was
	// applied: the student is the reference a relative one was cut against.
	if err := d.Resolve(c.Student.Params); err != nil {
		return err
	}
	if err := nn.ApplyNamed(c.Student.Params, d.Params); err != nil {
		return err
	}
	rs.lastApplied = d.Seq
	rs.cad.applied(d.Metric, d.StrideScale)
	return nil
}

// DefaultResumeBackoff is the delay before an outage's first redial when
// Client.ResumeBackoff is unset. Chaos twins use it to price a recovery on
// the simulation clock.
const DefaultResumeBackoff = 25 * time.Millisecond

// maxResumeBackoff caps the exponential redial delay.
const maxResumeBackoff = time.Second

// redialBudget resolves MaxResumeAttempts and ResumeBackoff to their
// defaults — the budget of one outage, or of one shed admission.
func (c *Client) redialBudget() (attempts int, backoff time.Duration) {
	attempts, backoff = c.MaxResumeAttempts, c.ResumeBackoff
	if attempts <= 0 {
		attempts = 8
	}
	if backoff <= 0 {
		backoff = DefaultResumeBackoff
	}
	return attempts, backoff
}

// recover is the background reconnect loop of one outage. It owns no
// client state: it works from the (sessionID, epoch, lastApplied) snapshot
// taken at drop time and hands everything needed to catch up — connection,
// replayed diffs or checkpoint, new epoch — back through out. cancel
// closes whatever connection it currently holds, making Run's teardown
// deterministic even mid-recovery.
func (c *Client) recover(sessionID, epoch, lastApplied uint64, out chan<- recovered, done chan<- struct{}, cancel *dialCanceler) {
	defer close(done)
	attempts, backoff := c.redialBudget()
	fresh := sessionID == 0 // a session the server never named cannot resume
	var lastErr error
	for a := 0; a < attempts; a++ {
		select {
		case <-time.After(backoff):
		case <-cancel.quit:
			out <- recovered{err: fmt.Errorf("core: recovery cancelled")}
			return
		}
		backoff = min(2*backoff, maxResumeBackoff)
		conn, err := c.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		if !cancel.adopt(conn) {
			conn.Close()
			out <- recovered{err: fmt.Errorf("core: recovery cancelled")}
			return
		}
		r, err := c.attemptRecovery(conn, sessionID, epoch, lastApplied, fresh)
		cancel.release()
		if err == nil {
			out <- r
			return
		}
		conn.Close()
		lastErr = err
		if permanentResumeReject(err) {
			// The server forgot the session (TTL eviction, restart):
			// resuming will never work, fall back to a fresh handshake.
			fresh = true
		}
	}
	out <- recovered{err: fmt.Errorf("core: client gave up after %d reconnect attempts: %w", attempts, lastErr)}
}

// errPermanentReject marks resume rejections that will not heal with a
// retry.
type errPermanentReject struct{ reason string }

func (e errPermanentReject) Error() string {
	return fmt.Sprintf("core: resume rejected: %s", e.reason)
}

func permanentResumeReject(err error) bool {
	_, ok := err.(errPermanentReject)
	return ok
}

// maxReplayDiffs bounds how many replayed diffs a client will accept in
// one resume — journals are bounded server-side, so anything larger is a
// protocol error, not a backlog.
const maxReplayDiffs = 4096

// attemptRecovery runs one Resume (or fresh Hello) handshake on conn. On
// error the caller owns closing conn.
func (c *Client) attemptRecovery(conn transport.Conn, sessionID, epoch, lastApplied uint64, fresh bool) (recovered, error) {
	if fresh {
		return c.freshRecovery(conn)
	}
	req := transport.Resume{SessionID: sessionID, Epoch: epoch, LastDiffSeq: lastApplied, BaseHash: c.hashBase()}
	if err := conn.Send(transport.Message{Type: transport.MsgResume, Body: transport.EncodeResume(req)}); err != nil {
		return recovered{}, fmt.Errorf("core: sending resume: %w", err)
	}
	m, err := conn.Recv()
	if err != nil {
		return recovered{}, fmt.Errorf("core: resume ack recv: %w", err)
	}
	if m.Type != transport.MsgResumeAck {
		return recovered{}, fmt.Errorf("core: expected ResumeAck, got %v", m.Type)
	}
	ack, err := transport.DecodeResumeAck(m.Body)
	if err != nil {
		return recovered{}, err
	}
	switch ack.Status {
	case transport.ResumeRetry:
		return recovered{}, fmt.Errorf("core: resume deferred: %s", ack.Reason)
	case transport.ResumeReject:
		return recovered{}, errPermanentReject{reason: ack.Reason}
	case transport.ResumeFull:
		m, err := conn.Recv()
		if err != nil {
			return recovered{}, fmt.Errorf("core: resume checkpoint recv: %w", err)
		}
		if m.Type != transport.MsgStudentFull {
			return recovered{}, fmt.Errorf("core: expected StudentFull, got %v", m.Type)
		}
		params, err := DecodeCheckpointBody(m.Body, c.Base)
		if err != nil {
			return recovered{}, err
		}
		return recovered{conn: conn, epoch: ack.Epoch, headSeq: ack.HeadSeq, full: params}, nil
	case transport.ResumeReplay:
		if ack.NumDiffs > maxReplayDiffs {
			return recovered{}, fmt.Errorf("core: implausible replay of %d diffs", ack.NumDiffs)
		}
		diffs := make([]transport.StudentDiff, 0, ack.NumDiffs)
		for i := 0; i < int(ack.NumDiffs); i++ {
			m, err := conn.Recv()
			if err != nil {
				return recovered{}, fmt.Errorf("core: replay diff recv: %w", err)
			}
			if m.Type != transport.MsgStudentDiff {
				return recovered{}, fmt.Errorf("core: expected replayed StudentDiff, got %v", m.Type)
			}
			d, err := transport.DecodeStudentDiff(m.Body)
			if err != nil {
				return recovered{}, err
			}
			diffs = append(diffs, d)
		}
		return recovered{conn: conn, epoch: ack.Epoch, headSeq: ack.HeadSeq, diffs: diffs}, nil
	}
	return recovered{}, fmt.Errorf("core: unexpected resume status %v", ack.Status)
}

// freshRecovery falls back to a brand-new session on conn: full Hello
// handshake, server-assigned ID, new checkpoint for the main loop to apply.
// A load-shed of this fallback is transient (never a permanent reject), so
// the recovery loop backs off and retries.
func (c *Client) freshRecovery(conn transport.Conn) (recovered, error) {
	ack, params, err := c.hello(conn, 0)
	if err != nil {
		return recovered{}, err
	}
	return recovered{conn: conn, epoch: ack.Epoch, session: ack.SessionID, full: params, fresh: true}, nil
}
