// Package serve scales the single-connection server of Algorithm 3
// (internal/core) to many concurrent clients: a session manager accepts
// transport.Conns, gives each client its own core.Distiller over a private
// clone of the pre-trained student (per-session state, as the paper's
// server keeps per-stream students), and labels every session's key frames
// with one shared teacher behind a mutex — the one-GPU-teacher-shared-by-
// many-mobile-students deployment the paper motivates in §1 and §7.
//
// The manager is additionally resilient to the mobile reality of flaky
// links: when a session's connection drops (core.ErrConnLost), its whole
// state — student clone, optimizer moments, sequence counters, plus a
// bounded journal of recent encoded diffs — is parked instead of discarded:
// it moves from the manager's attached sessions to its parked ones in one
// critical section, so it is never in neither. A client reconnecting with
// the protocol-v3 Resume handshake gets the session back and replays only
// the journal suffix past the last diff it applied, falling back to a full
// checkpoint when the gap out-ages the journal. A parked session is evicted
// when its ResumeTTL timer fires, when MaxSessions others are parked after
// it, or at Close. It can also change managers inside the process
// (MoveParked, how internal/fabric hands a session from one shard to
// another): the session object itself moves between the two registries, so
// nothing about it is serialised, copied or lost.
package serve

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/video"
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
	// Teacher is the shared teacher; the manager serialises its sessions'
	// calls to it behind one mutex.
	Teacher teacher.Teacher
	// MaxSessions caps concurrent sessions (default 64). Further Handle
	// calls block until a slot frees. It caps parked sessions too: parking
	// one while MaxSessions are already parked evicts the oldest.
	MaxSessions int
	// DrainTimeout bounds how long Close waits for active sessions to
	// finish before force-closing their connections (default 30s; negative
	// waits forever). A stalled client must not be able to wedge shutdown.
	DrainTimeout time.Duration
	// ResumeTTL bounds how long a disconnected session's state is parked
	// for resumption before being evicted (default 2m).
	ResumeTTL time.Duration
	// JournalDepth is how many recent student diffs each session journals
	// for replay on resume (default 8).
	JournalDepth int
	// EnvelopeCodec names the compress codec (ByName form, e.g.
	// "delta+int8") for MsgStudentFull checkpoints, at handshake and on a
	// resume's full-resend fallback. A client whose Hello or Resume carries
	// Base's hash gets them relative to Base, with the named codec (its
	// inner, for a "delta+" name) carrying what training moved; empty means
	// raw, which keeps them bit-exact and still relative. Everyone else gets
	// absolute checkpoints.
	EnvelopeCodec string
	// LinkPolicy names the diff codec every session encodes its student
	// diffs under, as "static:<codec>" (transport.DiffCodec); empty means
	// raw. Each diff names its codec in its header, so clients need no
	// setting of their own.
	LinkPolicy string
	// Telemetry, when non-nil, registers this manager's live metrics —
	// session/detached gauges, lifecycle counters, the distill-step
	// latency histogram — and records session events into the registry's
	// trace ring, all labelled shard=ShardIndex. End-of-run Stats are
	// unaffected; this is the live view the ROADMAP's fabric control
	// plane reads while sessions are still running. A fabric.Router sets
	// it on every shard from its own Options.Telemetry.
	Telemetry *telemetry.Registry
	// ShardIndex is the shard attribution used in metric labels and trace
	// events when several managers share one registry (internal/fabric
	// gives shard i index i). Standalone managers report shard 0.
	ShardIndex int
	// Logf, when non-nil, receives session lifecycle lines.
	Logf func(format string, v ...any)
}

// Manager owns the multi-session server: the session registry (attached and
// parked), per-session distillers, the shared teacher, and aggregate
// statistics.
type Manager struct {
	opts    Options
	teacher *sharedTeacher
	ck      *core.CheckpointCodec // relative to Base for clients that hold it; a delta envelope codec gives its inner
	codec   string                // every session's diff codec, parsed from LinkPolicy
	slots   chan struct{}
	quit    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	tm managerTelemetry

	mu     sync.Mutex
	closed bool
	nextID uint64
	active map[uint64]*session // attached to a live connection
	parked map[uint64]*session // detached, awaiting resumption
	conns  map[transport.Conn]struct{}
	agg    Stats // the summed counters; Stats fills in the gauges
}

// diffCodec parses Options.LinkPolicy: "" is raw, and "static:<codec>"
// names a codec transport.DiffCodec accepts.
func diffCodec(spec string) (string, error) {
	if spec == "" {
		return "", nil
	}
	codec, ok := strings.CutPrefix(spec, "static:")
	if !ok {
		return "", fmt.Errorf("serve: link policy %q: want \"static:<codec>\"", spec)
	}
	if _, err := transport.DiffCodec(codec); err != nil {
		return "", fmt.Errorf("serve: link policy %q: %w", spec, err)
	}
	return codec, nil
}

// NewManager builds a Manager around the shared teacher.
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
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	if opts.ResumeTTL <= 0 {
		opts.ResumeTTL = 2 * time.Minute
	}
	if opts.JournalDepth <= 0 {
		opts.JournalDepth = 8
	}
	codec, err := diffCodec(opts.LinkPolicy)
	if err != nil {
		return nil, err
	}
	c, ok := compress.ByName(opts.EnvelopeCodec) // "" resolves to raw
	if !ok {
		return nil, fmt.Errorf("serve: unknown envelope codec %q", opts.EnvelopeCodec)
	}
	tm := newManagerTelemetry(opts.Telemetry, opts.ShardIndex)
	return &Manager{
		opts:    opts,
		teacher: &sharedTeacher{t: opts.Teacher, depth: tm.teacherDepth},
		ck:      &core.CheckpointCodec{Base: opts.Base.Params, Codec: compress.Inner(c)},
		codec:   codec,
		slots:   make(chan struct{}, opts.MaxSessions),
		quit:    make(chan struct{}),
		active:  map[uint64]*session{},
		parked:  map[uint64]*session{},
		conns:   map[transport.Conn]struct{}{},
		tm:      tm,
	}, nil
}

// sharedTeacher is a shard's one teacher. Its sessions call it in turn,
// behind one mutex, as they would share the paper's single teacher GPU.
type sharedTeacher struct {
	t     teacher.Teacher
	depth *telemetry.Gauge // calls waiting for or inside the teacher
	calls atomic.Int64     // frames labelled; atomic, so Stats never waits for a call
	mu    sync.Mutex
}

// Infer implements teacher.Teacher.
func (s *sharedTeacher) Infer(f video.Frame) []int32 {
	s.depth.Add(1)
	s.mu.Lock()
	mask := s.t.Infer(f)
	s.mu.Unlock()
	s.depth.Add(-1)
	s.calls.Add(1)
	return mask
}

// Name implements teacher.Teacher.
func (s *sharedTeacher) Name() string { return s.t.Name() }

// RequiresLabel implements teacher.LabelRequirer by forwarding it: core.Server
// probes it, so that a label-less key frame fails its own session instead of
// panicking the oracle, and with it the server process.
func (s *sharedTeacher) RequiresLabel() bool {
	lr, ok := s.t.(teacher.LabelRequirer)
	return ok && lr.RequiresLabel()
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
// session to the registry at epoch 1. Behind a fabric.Router every Hello
// carries an ID the router claimed fabric-wide, so only a standalone
// manager mints its own: 1, 2, 3, …
func (m *Manager) register(requested uint64, sess *session) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := requested
	if id == 0 || m.active[id] != nil || m.parked[id] != nil {
		for {
			m.nextID++
			if m.active[m.nextID] == nil && m.parked[m.nextID] == nil {
				id = m.nextID
				break
			}
		}
	}
	sess.id, sess.epoch = id, 1
	m.active[id] = sess
	m.tm.started.Inc()
	m.tm.active.Set(float64(len(m.active)))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvSessionStart, Session: id, Epoch: 1, Shard: m.tm.shard})
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
// hashed to another shard needs the session moved there first. The answer is a
// snapshot — the authoritative check is the reattach under the manager's
// own lock, which handles every race (still-attached, just-evicted) with
// the proper protocol status.
func (m *Manager) SessionState(id uint64) SessionState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active[id] != nil {
		return SessionActive
	}
	if m.parked[id] != nil {
		return SessionParked
	}
	return SessionNone
}

// ParkedIDs returns the IDs of every detached session awaiting resumption
// (unordered). A drain walks this list to migrate parked state to surviving
// shards.
func (m *Manager) ParkedIDs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Collect(maps.Keys(m.parked))
}

// Close stops accepting sessions, waits up to DrainTimeout for active
// sessions to finish (then force-closes their connections), and evicts
// every parked session.
// Idempotent; concurrent callers block until the first invocation
// completes.
func (m *Manager) Close() error {
	m.once.Do(func() {
		close(m.quit)
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()

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
		// Nothing parks once closed is set, so this empties the registry
		// for good and stops every TTL timer.
		m.mu.Lock()
		for _, sess := range m.parked {
			m.evictLocked(sess)
		}
		m.mu.Unlock()
	})
	return nil
}

func (m *Manager) logf(format string, v ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, v...)
	}
}
