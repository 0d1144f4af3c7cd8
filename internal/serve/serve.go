// Package serve scales the single-connection server of Algorithm 3
// (internal/core) to many concurrent clients: a session manager accepts
// transport.Conns, gives each client its own core.Distiller over a private
// clone of the pre-trained student (per-session state, as the paper's
// server keeps per-stream students), and funnels every session's key-frame
// inference through one shared teacher behind a bounded, micro-batching
// worker queue (teacher.Batcher) — the one-GPU-teacher-amortised-across-
// many-mobile-students deployment the paper motivates in §1 and §7.
//
// The manager is additionally resilient to the mobile reality of flaky
// links: when a session's connection drops (core.ErrConnLost), its whole
// state — student clone, optimizer moments, sequence counters, plus a
// bounded journal of recent encoded diffs — is detached into a
// resume.Store instead of discarded. A client reconnecting with the
// protocol-v3 Resume handshake gets the session back and replays only the
// journal suffix past the last diff it applied, falling back to a full
// checkpoint when the gap out-ages the journal. Detached sessions are
// reaped after ResumeTTL.
package serve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/resume"
	"repro/internal/teacher"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// ErrClosed is returned by Handle after Close.
var ErrClosed = errors.New("serve: manager closed")

// Options configures a Manager.
type Options struct {
	// Cfg holds the algorithmic parameters applied to every session.
	Cfg core.Config
	// Base is the pre-trained student checkpoint; each session distils a
	// private clone of it.
	Base *nn.Student
	// Teacher is the shared teacher; the manager wraps it in a
	// teacher.Batcher unless it already is one.
	Teacher teacher.Teacher
	// MaxSessions caps concurrent sessions (default 64). Further Handle
	// calls block until a slot frees.
	MaxSessions int
	// BatchWorkers, MaxBatch and Linger tune the shared teacher queue; see
	// teacher.BatcherOptions.
	BatchWorkers int
	MaxBatch     int
	Linger       time.Duration
	// DrainTimeout bounds how long Close waits for active sessions to
	// finish before force-closing their connections (default 30s; negative
	// waits forever). A stalled client must not be able to wedge shutdown.
	DrainTimeout time.Duration
	// ResumeTTL bounds how long a disconnected session's state is parked
	// for resumption before being evicted (default 2m; negative disables
	// resumption entirely — dropped sessions are discarded as before).
	ResumeTTL time.Duration
	// JournalDepth is how many recent student diffs each session journals
	// for replay on resume (default 8).
	JournalDepth int
	// MaxDetached caps sessions parked for resumption; beyond it the
	// oldest is evicted (default MaxSessions).
	MaxDetached int
	// IDOffset and IDStride partition the fallback session-ID space when
	// several managers serve one fabric (internal/fabric gives shard i of N
	// offset i, stride N): fallback-assigned IDs are IDOffset + k·IDStride,
	// k ≥ 1, so no two shards can ever mint the same ID concurrently. The
	// defaults (0, 1) reproduce the standalone numbering 1, 2, 3, …
	IDOffset uint64
	IDStride uint64
	// EnvelopeCodec names the compress codec (ByName form, e.g.
	// "delta+int8") applied to model state crossing process boundaries: the
	// student params inside session-handoff envelopes are encoded with it,
	// and a non-empty value additionally delta-encodes MsgStudentFull
	// checkpoints against Base for clients that negotiated
	// CapDeltaCheckpoint. Empty exports envelopes under "raw" — bit-exact
	// for params and both Adam moments (see envelope.go) — and keeps
	// checkpoints raw.
	EnvelopeCodec string
	// LinkPolicy, when non-empty, names the link policy (core.PolicyByName
	// form: "adaptive", or "static:<codec>" to pin one diff codec) each
	// session runs. It is the only way to pick a diff codec: the server
	// reads the conn's packet-link stats, lets the policy choose codec,
	// stride scale and FEC group per key frame, and encodes diffs as
	// self-describing adaptive envelopes, which clients opt into with
	// core.Client.Adaptive. Empty sends raw transport.EncodeStudentDiff
	// bodies. The policy instance is per session and survives
	// detach/resume; its link observation follows whichever conn the
	// session rides.
	LinkPolicy string
	// Telemetry, when non-nil, registers this manager's live metrics —
	// session/detached gauges, lifecycle counters, the distill-step
	// latency histogram — and records session events into the registry's
	// trace ring, all labelled shard=ShardIndex. End-of-run Stats are
	// unaffected; this is the live view the ROADMAP's fabric control
	// plane reads while sessions are still running.
	Telemetry *telemetry.Registry
	// ShardIndex is the shard attribution used in metric labels and trace
	// events when several managers share one registry (internal/fabric
	// gives shard i index i). Standalone managers report shard 0.
	ShardIndex int
	// Logf, when non-nil, receives session lifecycle lines.
	Logf func(format string, v ...any)
}

// managerTelemetry holds the metric handles one manager records into.
// Every handle is nil (a no-op) when telemetry is disabled, so record
// sites are unconditional.
type managerTelemetry struct {
	shard          int
	active         *telemetry.Gauge
	detached       *telemetry.Gauge
	started        *telemetry.Counter
	completed      *telemetry.Counter
	resumeReplays  *telemetry.Counter
	resumeFulls    *telemetry.Counter
	evicted        *telemetry.Counter
	keyFrames      *telemetry.Counter
	distillSteps   *telemetry.Counter
	distill        *telemetry.Histogram
	policySwitches *telemetry.Counter
	trace          *telemetry.TraceRing
}

func newManagerTelemetry(reg *telemetry.Registry, shard int) managerTelemetry {
	t := managerTelemetry{shard: shard}
	if reg == nil {
		return t
	}
	l := telemetry.L("shard", strconv.Itoa(shard))
	t.active = reg.Gauge("shadowtutor_sessions_active", "Live sessions attached to this shard.", l)
	t.detached = reg.Gauge("shadowtutor_sessions_detached", "Sessions parked for resumption on this shard.", l)
	t.started = reg.Counter("shadowtutor_sessions_started_total", "Fresh sessions admitted.", l)
	t.completed = reg.Counter("shadowtutor_sessions_completed_total", "Sessions completed (incl. evicted parked ones).", l)
	t.resumeReplays = reg.Counter("shadowtutor_session_resumes_total", "Sessions re-attached after a drop.", l, telemetry.L("mode", "replay"))
	t.resumeFulls = reg.Counter("shadowtutor_session_resumes_total", "Sessions re-attached after a drop.", l, telemetry.L("mode", "full"))
	t.evicted = reg.Counter("shadowtutor_session_evictions_total", "Parked sessions dropped by TTL/capacity/shutdown.", l)
	t.keyFrames = reg.Counter("shadowtutor_key_frames_total", "Key frames distilled.", l)
	t.distillSteps = reg.Counter("shadowtutor_distill_steps_total", "Optimisation steps taken.", l)
	t.distill = reg.Histogram("shadowtutor_distill_step_seconds", "Wall time per distillation step.", telemetry.DurationBuckets, l)
	t.policySwitches = reg.Counter("shadowtutor_policy_switches_total", "Adaptive link-policy hysteresis transitions.", l)
	t.trace = reg.Trace()
	return t
}

// SessionInfo is a point-in-time view of one active session. Distillation
// counters are folded into Stats only when a session completes — they are
// owned by the session goroutine while it runs.
type SessionInfo struct {
	ID      uint64
	Epoch   uint64
	Started time.Time
}

// Stats aggregates manager activity.
type Stats struct {
	SessionsServed int64         // sessions completed (incl. evicted detached ones)
	Active         int           // sessions currently running
	KeyFrames      int64         // key frames distilled across completed sessions
	DistillSteps   int64         // optimisation steps across completed sessions
	DistillTime    time.Duration // wall time spent in those steps
	Teacher        teacher.BatchStats

	// Resilience counters.
	Detached      int   // sessions currently parked for resumption
	Resumed       int64 // sessions successfully re-attached after a drop
	ResumeReplays int64 // resumes served from the diff journal
	ResumeFulls   int64 // resumes that fell back to a full checkpoint
	Evicted       int64 // parked sessions dropped by TTL/capacity/shutdown

	// Byte accounting for model state crossing process boundaries. Each
	// *Bytes counter records what was actually sent; its *Baseline twin
	// records what the legacy raw encoding would have cost, so
	// baseline/actual is the wire shrink factor (1x on the legacy paths).
	CheckpointBytes    int64 // MsgStudentFull bodies sent at handshake
	CheckpointBaseline int64
	FullResendBytes    int64 // MsgStudentFull bodies sent by resume-full fallback
	FullResendBaseline int64
	EnvelopeBytes      int64 // whole session-handoff envelopes (incl. journal)
	EnvelopeCkBytes    int64 // model-state portion of those envelopes
	EnvelopeCkBaseline int64
}

// MeanDistillSteps is the mean number of optimisation steps per key frame
// across completed sessions. A manager that has completed no sessions (or
// only sessions whose every key frame skipped optimisation) reports 0
// rather than dividing by zero — shards start empty, and a router folding
// shard stats must be able to call this on any partial aggregate.
func (s Stats) MeanDistillSteps() float64 {
	if s.KeyFrames == 0 {
		return 0
	}
	return float64(s.DistillSteps) / float64(s.KeyFrames)
}

// MeanStepLatency is the mean wall time of one distillation step across
// completed sessions (0 when no steps have been taken — see
// MeanDistillSteps on the zero-session guard).
func (s Stats) MeanStepLatency() time.Duration {
	if s.DistillSteps == 0 {
		return 0
	}
	return s.DistillTime / time.Duration(s.DistillSteps)
}

// Add folds another manager's stats into s and returns the sum — the
// associative merge a router (internal/fabric) uses to aggregate shard
// workers. Every field is a raw sum (gauges like Active and Detached sum
// across disjoint shards; the teacher block merges via
// teacher.BatchStats.Add), so fold order cannot change the result and the
// mean helpers — which re-derive from summed numerators and denominators —
// never average averages or divide by a shard-local zero.
func (s Stats) Add(o Stats) Stats {
	s.SessionsServed += o.SessionsServed
	s.Active += o.Active
	s.KeyFrames += o.KeyFrames
	s.DistillSteps += o.DistillSteps
	s.DistillTime += o.DistillTime
	s.Teacher = s.Teacher.Add(o.Teacher)
	s.Detached += o.Detached
	s.Resumed += o.Resumed
	s.ResumeReplays += o.ResumeReplays
	s.ResumeFulls += o.ResumeFulls
	s.Evicted += o.Evicted
	s.CheckpointBytes += o.CheckpointBytes
	s.CheckpointBaseline += o.CheckpointBaseline
	s.FullResendBytes += o.FullResendBytes
	s.FullResendBaseline += o.FullResendBaseline
	s.EnvelopeBytes += o.EnvelopeBytes
	s.EnvelopeCkBytes += o.EnvelopeCkBytes
	s.EnvelopeCkBaseline += o.EnvelopeCkBaseline
	return s
}

// session is one client's server-side state and, as the core.SessionObserver
// of its own core.Server, the manager's only tap into the protocol loop. It
// is built once (newSession), registered by its handshake (Assign), and then
// moves between the active registry and the resume store with srv.Observer
// still pointing at it, so nothing is re-wired on detach, resume or import.
type session struct {
	m       *Manager
	id      uint64
	epoch   uint64
	srv     *core.Server
	journal *resume.Journal
	started time.Time
}

// newSession builds the per-session state: a private clone of the checkpoint
// with its own distiller and optimizer behind the shared batched teacher, a
// replay journal of the given depth, and this manager's link policy.
func (m *Manager) newSession(journalDepth int) *session {
	s := &session{m: m, journal: resume.NewJournal(journalDepth)}
	s.srv = core.NewServer(m.opts.Cfg, m.opts.Base.Clone(), m.batcher)
	s.srv.Observer = s
	s.srv.Checkpoint = m.ck
	if m.opts.LinkPolicy != "" {
		// NewManager validated the name, so this cannot fail.
		s.srv.Policy, _ = core.PolicyByName(m.opts.LinkPolicy)
	}
	return s
}

// Assign implements core.SessionObserver: the handshake registers the
// session under the ID it will acknowledge.
func (s *session) Assign(h transport.Hello) (id, epoch uint64, err error) {
	s.m.register(h.SessionID, s)
	s.m.logf("session %d started (requested id %d)", s.id, h.SessionID)
	return s.id, s.epoch, nil
}

// Checkpoint implements core.SessionObserver: handshake MsgStudentFull bytes
// against the raw baseline.
func (s *session) Checkpoint(actual, baseline int) {
	s.m.mu.Lock()
	s.m.agg.CheckpointBytes += int64(actual)
	s.m.agg.CheckpointBaseline += int64(baseline)
	s.m.mu.Unlock()
}

// Diff implements core.SessionObserver: every encoded diff (raw body or
// adaptive envelope, verbatim) enters the replay journal.
func (s *session) Diff(seq uint64, body []byte) { s.journal.Append(seq, body) }

// Train implements core.SessionObserver, feeding the live distillation
// metrics; the handles are nil no-ops when telemetry is off.
func (s *session) Train(tr core.TrainResult) {
	tm := &s.m.tm
	tm.keyFrames.Inc()
	if tr.Steps > 0 {
		tm.distillSteps.Add(int64(tr.Steps))
		tm.distill.Observe(tr.StepTime.Seconds() / float64(tr.Steps))
	}
}

// Policy implements core.SessionObserver: a hysteresis transition is counted
// and traced under the session's current epoch.
func (s *session) Policy(dec netsim.LinkDecision, changed bool) {
	if !changed {
		return
	}
	tm := &s.m.tm
	tm.policySwitches.Inc()
	tm.trace.Record(telemetry.Event{
		Time:    time.Now(),
		Kind:    telemetry.EvPolicy,
		Session: s.id,
		Epoch:   uint32(s.epoch),
		Shard:   tm.shard,
		Detail:  dec.State.String(),
	})
}

// Manager owns the multi-session server: session registry, per-session
// distillers, the shared batched teacher, the resume store, and aggregate
// statistics.
type Manager struct {
	opts     Options
	batcher  *teacher.Batcher
	store    *resume.Store         // nil when resumption is disabled
	envCodec compress.Codec        // envelope params codec, bound to Base
	ck       *core.CheckpointCodec // delta checkpoint codec (nil = always raw)
	slots    chan struct{}
	quit     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup

	tm managerTelemetry

	mu        sync.Mutex
	closed    bool
	nextID    uint64
	active    map[uint64]*session
	conns     map[transport.Conn]struct{}
	agg       Stats // the summed counters; Stats fills in the gauges
	listeners []*transport.Listener
}

// NewManager builds a Manager and starts the shared teacher queue.
func NewManager(opts Options) (*Manager, error) {
	if opts.Base == nil {
		return nil, errors.New("serve: Options.Base student required")
	}
	if opts.Teacher == nil {
		return nil, errors.New("serve: Options.Teacher required")
	}
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 64
	}
	// A shard's configured compute backend covers its teacher replica here;
	// per-session students pick it up in core.NewDistiller from Cfg.Backend.
	// Base is deliberately NOT mutated: fabrics share one base checkpoint
	// across shards with different backends, and a write here would leak one
	// shard's backend into every other shard's session clones. Cfg.Backend
	// has been validated above, so resolution cannot fail here.
	if bk, err := tensor.BackendByName(opts.Cfg.Backend); err == nil {
		bs, hasBackend := opts.Teacher.(interface {
			SetBackend(tensor.Backend)
		})
		// The shared "device" registry entry is replaced with a private
		// handle per manager: residency and the pack/hit counters then
		// attribute to this shard's teacher replica alone, and a frozen
		// teacher packs its weights exactly once per replica instead of
		// contending on one process-wide cache.
		if _, shared := bk.(*tensor.Device); shared && hasBackend {
			dev := tensor.NewDevice()
			bk = dev
			if opts.Telemetry != nil {
				l := telemetry.L("shard", strconv.Itoa(opts.ShardIndex))
				opts.Telemetry.GaugeFunc("shadowtutor_device_weight_packs",
					"Weight matrices packed for the first time on this shard's device handle.",
					func() float64 { return float64(dev.Stats().Packs) }, l)
				opts.Telemetry.GaugeFunc("shadowtutor_device_weight_repacks",
					"Packs forced by weight version bumps on this shard's device handle.",
					func() float64 { return float64(dev.Stats().Repacks) }, l)
				opts.Telemetry.GaugeFunc("shadowtutor_device_pack_hits",
					"Batched kernels served from resident packed panels on this shard.",
					func() float64 { return float64(dev.Stats().Hits) }, l)
				opts.Telemetry.GaugeFunc("shadowtutor_device_resident_packs",
					"Packed weight matrices currently resident on this shard's device handle.",
					func() float64 { return float64(dev.Stats().Resident) }, l)
			}
		}
		if hasBackend {
			bs.SetBackend(bk)
		}
	}
	b, ok := opts.Teacher.(*teacher.Batcher)
	if !ok {
		b = teacher.NewBatcher(opts.Teacher, teacher.BatcherOptions{
			Workers:   opts.BatchWorkers,
			MaxBatch:  opts.MaxBatch,
			Linger:    opts.Linger,
			Telemetry: opts.Telemetry,
			Shard:     opts.ShardIndex,
		})
	}
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	if opts.ResumeTTL == 0 {
		opts.ResumeTTL = 2 * time.Minute
	}
	if opts.JournalDepth <= 0 {
		opts.JournalDepth = 8
	}
	if opts.MaxDetached <= 0 {
		opts.MaxDetached = opts.MaxSessions
	}
	if opts.IDStride == 0 {
		opts.IDStride = 1
	}
	if opts.LinkPolicy != "" {
		if _, err := core.PolicyByName(opts.LinkPolicy); err != nil {
			return nil, err
		}
	}
	c, ok := compress.ByName(opts.EnvelopeCodec) // "" resolves to raw
	if !ok {
		return nil, fmt.Errorf("serve: unknown envelope codec %q", opts.EnvelopeCodec)
	}
	envCodec := compress.WithBase(c, opts.Base.Params)
	var ck *core.CheckpointCodec
	if opts.EnvelopeCodec != "" {
		// MsgStudentFull checkpoints are always delta-framed for capable
		// clients; a non-delta envelope codec becomes the delta's inner.
		ck = &core.CheckpointCodec{Base: opts.Base.Params, Codec: compress.Inner(envCodec)}
	}
	m := &Manager{
		opts:     opts,
		batcher:  b,
		envCodec: envCodec,
		ck:       ck,
		slots:    make(chan struct{}, opts.MaxSessions),
		quit:     make(chan struct{}),
		active:   map[uint64]*session{},
		conns:    map[transport.Conn]struct{}{},
		nextID:   opts.IDOffset,
	}
	m.tm = newManagerTelemetry(opts.Telemetry, opts.ShardIndex)
	if opts.ResumeTTL > 0 {
		m.store = resume.NewStore(resume.Options{
			TTL:         opts.ResumeTTL,
			MaxSessions: opts.MaxDetached,
			OnEvict:     m.foldEvicted,
		})
	}
	return m, nil
}

// Handle serves one client session on conn, blocking until the session
// ends. It may be called from any number of goroutines; when MaxSessions
// sessions are active it blocks until a slot frees. The caller owns conn.
// The first message routes the connection: a Hello opens a fresh session,
// a Resume re-attaches a detached one.
func (m *Manager) Handle(conn transport.Conn) error {
	release, ok := m.acquire(conn)
	if !ok {
		return ErrClosed
	}
	defer release()
	first, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("serve: reading handshake: %w", err)
	}
	return m.dispatch(conn, first)
}

// HandleFirst is Handle for a connection whose first message was already
// read — a router frontend (internal/fabric) peeks at the opening frame to
// place the session on a shard, then hands both here.
func (m *Manager) HandleFirst(conn transport.Conn, first transport.Message) error {
	release, ok := m.acquire(conn)
	if !ok {
		return ErrClosed
	}
	defer release()
	return m.dispatch(conn, first)
}

// acquire performs session admission for one connection: register with the
// shutdown WaitGroup, take a MaxSessions slot (blocking until one frees),
// and track the conn for force-close on drain timeout. ok is false when
// the manager is closed; otherwise the caller must invoke release when the
// session ends.
func (m *Manager) acquire(conn transport.Conn) (release func(), ok bool) {
	if !m.track() {
		return nil, false
	}
	select {
	case m.slots <- struct{}{}:
	case <-m.quit:
		m.wg.Done()
		return nil, false
	}
	m.trackConn(conn)
	return func() {
		m.untrackConn(conn)
		<-m.slots
		m.wg.Done()
	}, true
}

// dispatch routes an opened connection by its first message: Resume
// re-attaches a detached session, anything else runs the fresh-Hello path
// (which rejects non-Hello types).
func (m *Manager) dispatch(conn transport.Conn, first transport.Message) error {
	if first.Type == transport.MsgResume {
		return m.handleResume(conn, first)
	}
	return m.handleFresh(conn, first)
}

// handleFresh runs a brand-new session over conn, first.Type being the
// client's opening message (normally a Hello; core rejects anything else).
func (m *Manager) handleFresh(conn transport.Conn, first transport.Message) error {
	sess := m.newSession(m.opts.JournalDepth)
	if _, err := sess.srv.HandshakeWith(conn, first); err != nil {
		if sess.id != 0 {
			m.unregister(sess.id)
		}
		return err
	}
	return m.runSession(conn, sess)
}

// runSession drives Loop and routes the ending: clean completion folds
// stats, a lost connection detaches the session for resumption, a protocol
// violation discards it.
func (m *Manager) runSession(conn transport.Conn, sess *session) error {
	// Read before detach: once parked, a resume on another goroutine may
	// already be re-stamping the session's epoch.
	id, epoch, srv := sess.id, sess.epoch, sess.srv
	err := srv.Loop(conn)
	if errors.Is(err, core.ErrConnLost) && m.detach(sess) {
		m.logf("session %d detached at epoch %d (diff seq %d): %v", id, epoch, srv.DiffSeq, err)
		return nil
	}
	m.unregister(id)
	if err != nil && !errors.Is(err, core.ErrConnLost) {
		m.logf("session %d ended with error: %v", id, err)
		return fmt.Errorf("serve: session %d: %w", id, err)
	}
	if err != nil {
		m.logf("session %d ended: connection lost, resumption disabled or shutting down", id)
		return nil
	}
	m.logf("session %d complete: %d key frames, mean %.2f steps",
		id, srv.Distiller.TotalTrains, srv.Distiller.MeanSteps())
	return nil
}

// handleResume re-attaches a detached session to conn and serves it.
func (m *Manager) handleResume(conn transport.Conn, first transport.Message) error {
	req, err := transport.DecodeResume(first.Body)
	if err != nil {
		// Malformed body: fail only this connection, no ack — nothing
		// trustworthy to address it to.
		return fmt.Errorf("serve: malformed resume: %w", err)
	}
	sess, ack, reason := m.reattach(req)
	if sess == nil {
		// Rejection (permanent or transient): tell the client, then fail
		// this connection.
		m.sendAck(conn, ack)
		return fmt.Errorf("serve: resume of session %d rejected: %s", req.SessionID, reason)
	}
	srv := sess.srv

	entries, complete := sess.journal.Suffix(req.LastDiffSeq)
	if complete {
		ack.Status = transport.ResumeReplay
		ack.NumDiffs = uint32(len(entries))
	} else {
		ack.Status = transport.ResumeFull
	}
	if err := m.sendAck(conn, ack); err != nil {
		return m.redetach(sess, err)
	}
	if complete {
		for _, e := range entries {
			if err := conn.Send(transport.Message{Type: transport.MsgStudentDiff, Body: e.Body}); err != nil {
				return m.redetach(sess, err)
			}
		}
		m.countResume(true)
		m.logf("session %d resumed at epoch %d: replayed %d of %d journaled diffs",
			sess.id, sess.epoch, len(entries), sess.journal.Len())
	} else {
		// Resume requests carry the same capability bits as Hello, so the
		// full-resend fallback — the dominant checkpoint cost under churn —
		// goes base-relative whenever the client proved it holds the base.
		all := srv.Distiller.Student.Params.All()
		full, err := m.ck.EncodeFor(req.Caps, req.BaseHash, all)
		if err != nil {
			m.unregister(sess.id)
			return err
		}
		m.countFullResend(len(full), nn.EncodedSize(all))
		if err := conn.Send(transport.Message{Type: transport.MsgStudentFull, Body: full}); err != nil {
			return m.redetach(sess, err)
		}
		m.countResume(false)
		m.logf("session %d resumed at epoch %d: journal gap too old (asked for > %d, tail %d), sent full checkpoint",
			sess.id, sess.epoch, req.LastDiffSeq, sess.journal.Tail())
	}
	return m.runSession(conn, sess)
}

// reattach validates a resume request and, on success, atomically moves
// the session from the store back into the active registry under a fresh
// epoch. On failure it returns a nil session plus the rejection ack and
// reason.
func (m *Manager) reattach(req transport.Resume) (*session, transport.ResumeAck, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	reject := func(status transport.ResumeStatus, reason string) (*session, transport.ResumeAck, string) {
		return nil, transport.ResumeAck{Status: status, Reason: reason}, reason
	}
	if m.closed {
		return reject(transport.ResumeReject, "server shutting down")
	}
	if m.store == nil {
		return reject(transport.ResumeReject, "resumption disabled")
	}
	if m.active[req.SessionID] != nil {
		// The previous connection has not been torn down yet (the server
		// may not have observed the drop); the client should back off and
		// retry.
		return reject(transport.ResumeRetry, fmt.Sprintf("session %d still attached", req.SessionID))
	}
	ds, err := m.store.Take(req.SessionID, req.Epoch)
	if err != nil {
		return reject(transport.ResumeReject, err.Error())
	}
	srv := ds.State.(*core.Server)
	if req.LastDiffSeq > srv.DiffSeq {
		// The client claims diffs this session never produced: a confused
		// or hostile peer. The session state is intact — park it again
		// unchanged (same epochs, same eviction deadline: probing must not
		// extend the TTL) and fail only this connection.
		m.store.Put(ds)
		return reject(transport.ResumeReject,
			fmt.Sprintf("client claims diff seq %d past server head %d", req.LastDiffSeq, srv.DiffSeq))
	}
	sess := srv.Observer.(*session)
	sess.epoch = ds.Epoch + 1
	sess.started = time.Now()
	m.active[sess.id] = sess
	m.tm.active.Set(float64(len(m.active)))
	m.tm.detached.Set(float64(m.store.Len()))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvResume, Session: sess.id, Epoch: uint32(sess.epoch), Seq: srv.DiffSeq, Shard: m.tm.shard})
	return sess, transport.ResumeAck{Epoch: sess.epoch, HeadSeq: srv.DiffSeq}, ""
}

// redetach parks a session whose resumed connection failed before or
// during replay — the state is still intact, a later resume may succeed
// (detach re-accepts the previous epoch, since this ack never arrived).
func (m *Manager) redetach(sess *session, cause error) error {
	id, epoch := sess.id, sess.epoch // see runSession
	if m.detach(sess) {
		m.logf("session %d re-detached at epoch %d: %v", id, epoch, cause)
		return nil
	}
	m.unregister(id)
	return fmt.Errorf("serve: session %d resume interrupted: %w", id, cause)
}

func (m *Manager) sendAck(conn transport.Conn, ack transport.ResumeAck) error {
	body, err := transport.EncodeResumeAck(ack)
	if err != nil {
		return err
	}
	return conn.Send(transport.Message{Type: transport.MsgResumeAck, Body: body})
}

func (m *Manager) countResume(replay bool) {
	m.mu.Lock()
	m.agg.Resumed++
	if replay {
		m.agg.ResumeReplays++
		m.tm.resumeReplays.Inc()
	} else {
		m.agg.ResumeFulls++
		m.tm.resumeFulls.Inc()
	}
	m.mu.Unlock()
}

func (m *Manager) countFullResend(actual, baseline int) {
	m.mu.Lock()
	m.agg.FullResendBytes += int64(actual)
	m.agg.FullResendBaseline += int64(baseline)
	m.mu.Unlock()
}

func (m *Manager) countEnvelope(total, ck, ckBaseline int) {
	m.mu.Lock()
	m.agg.EnvelopeBytes += int64(total)
	m.agg.EnvelopeCkBytes += int64(ck)
	m.agg.EnvelopeCkBaseline += int64(ckBaseline)
	m.mu.Unlock()
}

// detach moves a live session into the resume store. It reports false —
// meaning the caller must fold and discard instead — when resumption is
// disabled or the manager is closing.
func (m *Manager) detach(sess *session) bool {
	id, epoch, srv := sess.id, sess.epoch, sess.srv
	if id == 0 || m.store == nil {
		return false
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	delete(m.active, id)
	m.tm.active.Set(float64(len(m.active)))
	m.mu.Unlock()
	// Accept the previous epoch too: the ack that carried the current one
	// may have died on the wire with this very drop, leaving the client
	// legitimately one generation behind. Sessions are taken at most once,
	// so this cannot fork.
	var alt uint64
	if epoch > 1 {
		alt = epoch - 1
	}
	err := m.store.Put(&resume.Session{
		ID:       id,
		Epoch:    epoch,
		AltEpoch: alt,
		LastSeq:  srv.DiffSeq,
		State:    srv,
		Journal:  sess.journal,
	})
	if err != nil {
		// Store closed under us: fold the stats as a completed session.
		m.foldStats(srv)
		return true
	}
	m.tm.detached.Set(float64(m.store.Len()))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvDetach, Session: id, Epoch: uint32(epoch), Seq: srv.DiffSeq, Shard: m.tm.shard})
	return true
}

func (m *Manager) trackConn(c transport.Conn) {
	m.mu.Lock()
	m.conns[c] = struct{}{}
	m.mu.Unlock()
}

func (m *Manager) untrackConn(c transport.Conn) {
	m.mu.Lock()
	delete(m.conns, c)
	m.mu.Unlock()
}

// track registers a unit of in-flight work with the shutdown WaitGroup,
// refusing once Close has begun (Add must not race Wait).
func (m *Manager) track() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.wg.Add(1)
	return true
}

// register assigns a session ID (honouring the client's request when it is
// nonzero and free — parked sessions keep their IDs reserved) and adds the
// session to the registry at epoch 1.
func (m *Manager) register(requested uint64, sess *session) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := requested
	if id == 0 || m.active[id] != nil || m.parked(id) {
		for {
			m.nextID += m.opts.IDStride
			if m.active[m.nextID] == nil && !m.parked(m.nextID) {
				id = m.nextID
				break
			}
		}
	}
	sess.id, sess.epoch, sess.started = id, 1, time.Now()
	m.active[id] = sess
	m.tm.started.Inc()
	m.tm.active.Set(float64(len(m.active)))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvSessionStart, Session: id, Epoch: 1, Shard: m.tm.shard})
}

// parked reports whether id is reserved by a detached session. Caller
// holds m.mu (the store has its own lock; lock order is always m.mu →
// store).
func (m *Manager) parked(id uint64) bool {
	return m.store != nil && m.store.Has(id)
}

func (m *Manager) unregister(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.active[id]; ok {
		delete(m.active, id)
		m.foldStatsLocked(s.srv)
		m.tm.active.Set(float64(len(m.active)))
		m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvSessionEnd, Session: id, Epoch: uint32(s.epoch), Seq: s.srv.DiffSeq, Shard: m.tm.shard})
	}
}

// foldStats folds a finished session's distillation counters into the
// aggregate.
func (m *Manager) foldStats(srv *core.Server) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.foldStatsLocked(srv)
}

func (m *Manager) foldStatsLocked(srv *core.Server) {
	m.agg.SessionsServed++
	m.tm.completed.Inc()
	m.agg.KeyFrames += int64(srv.Distiller.TotalTrains)
	m.agg.DistillSteps += int64(srv.Distiller.TotalSteps)
	m.agg.DistillTime += srv.Distiller.TotalStepTime
}

// foldEvicted is the resume.Store eviction callback: a parked session that
// expired (or was displaced) completes now, so its stats fold. Called
// without store locks held.
func (m *Manager) foldEvicted(ds *resume.Session) {
	if srv, ok := ds.State.(*core.Server); ok {
		m.foldStats(srv)
		m.tm.evicted.Inc()
		m.tm.detached.Set(float64(m.store.Len()))
		m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvEvict, Session: ds.ID, Epoch: uint32(ds.Epoch), Seq: ds.LastSeq, Shard: m.tm.shard})
		m.logf("session %d evicted from resume store (epoch %d, %d key frames)",
			ds.ID, ds.Epoch, srv.Distiller.TotalTrains)
	}
}

// ServeListener accepts connections from ln until the manager is closed or
// the listener fails, spawning one session handler goroutine per client.
// Close closes ln, so a post-Close accept error reports as clean shutdown.
func (m *Manager) ServeListener(ln *transport.Listener) error {
	m.mu.Lock()
	m.listeners = append(m.listeners, ln)
	m.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-m.quit:
				return nil
			default:
				return err
			}
		}
		go func() {
			defer conn.Close()
			// Handle tracks itself with the shutdown WaitGroup and logs
			// session failures.
			m.Handle(conn)
		}()
	}
}

// Load reports the number of active sessions against the manager's
// capacity (MaxSessions). A router frontend consults it for admission
// control: the watermark check happens before the session is handed over,
// so an over-capacity shard sheds with a retryable reject instead of
// silently queueing the connection on the slot channel.
func (m *Manager) Load() (active, capacity int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active), m.opts.MaxSessions
}

// SessionState classifies what the manager knows about a session ID.
type SessionState int

// Session states, as reported by Manager.SessionState.
const (
	// SessionNone: the manager has never seen the ID, or the session
	// completed or was evicted.
	SessionNone SessionState = iota
	// SessionActive: the session is attached to a live connection.
	SessionActive
	// SessionParked: the session is detached, awaiting resumption.
	SessionParked
)

// SessionState reports whether the given session is active, parked, or
// unknown on this manager. A router uses it to decide whether a resume that
// hashed to another shard needs a cross-shard handoff. The answer is a
// snapshot — the authoritative check is the reattach under the manager's
// own lock, which handles every race (still-attached, just-evicted) with
// the proper protocol status.
func (m *Manager) SessionState(id uint64) SessionState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active[id] != nil {
		return SessionActive
	}
	if m.parked(id) {
		return SessionParked
	}
	return SessionNone
}

// ParkedIDs returns the IDs of every detached session awaiting resumption
// (unordered; empty when resumption is disabled). A drain walks this list
// to migrate parked state to surviving shards.
func (m *Manager) ParkedIDs() []uint64 {
	if m.store == nil {
		return nil
	}
	return m.store.IDs()
}

// Sessions snapshots the currently active sessions.
func (m *Manager) Sessions() []SessionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SessionInfo, 0, len(m.active))
	for _, s := range m.active {
		out = append(out, SessionInfo{ID: s.id, Epoch: s.epoch, Started: s.started})
	}
	return out
}

// Stats snapshots aggregate activity.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.agg
	st.Active = len(m.active)
	st.Teacher = m.batcher.Stats()
	if m.store != nil {
		st.Detached = m.store.Len()
		st.Evicted = m.store.Evicted()
	}
	return st
}

// Close stops accepting sessions, closes any listeners handed to
// ServeListener, waits up to DrainTimeout for active sessions to finish
// (then force-closes their connections), evicts every parked session, and
// shuts the shared teacher queue down. Idempotent; concurrent callers
// block until the first invocation completes.
func (m *Manager) Close() error {
	m.once.Do(func() {
		close(m.quit)
		m.mu.Lock()
		m.closed = true
		lns := m.listeners
		m.listeners = nil
		m.mu.Unlock()
		for _, ln := range lns {
			ln.Close()
		}

		done := make(chan struct{})
		go func() {
			m.wg.Wait()
			close(done)
		}()
		if m.opts.DrainTimeout < 0 {
			<-done
		} else {
			select {
			case <-done:
			case <-time.After(m.opts.DrainTimeout):
				m.mu.Lock()
				n := len(m.conns)
				for c := range m.conns {
					c.Close()
				}
				m.mu.Unlock()
				m.logf("drain timed out, force-closed %d session conns", n)
				<-done
			}
		}
		if m.store != nil {
			m.store.Close()
		}
		m.batcher.Close()
	})
	return nil
}

func (m *Manager) logf(format string, v ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, v...)
	}
}
