package resume

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Resume errors. ErrUnknown and ErrEpoch are permanent — the client must
// fall back to a fresh handshake; ErrClosed means the store is shutting
// down.
var (
	ErrUnknown = errors.New("resume: unknown or expired session")
	ErrEpoch   = errors.New("resume: epoch mismatch")
	ErrClosed  = errors.New("resume: store closed")
)

// Session is the parked state of one disconnected session.
type Session struct {
	ID uint64
	// Epoch is the attachment generation the session was detached under;
	// Take requires the caller to present it (or AltEpoch, when set).
	Epoch uint64
	// AltEpoch, when nonzero, is a second acceptable epoch: a resume that
	// was interrupted before its ack (carrying the bumped epoch) provably
	// reached the client leaves the client holding either the old or the
	// new value, and rejecting the old one would orphan the session.
	AltEpoch uint64
	// LastSeq is the last student-diff sequence the server produced.
	LastSeq uint64
	// State is the opaque per-session owner state (internal/serve parks
	// its core.Server here).
	State any
	// Journal holds the most recent encoded diffs for replay.
	Journal *Journal
	// DetachedAt stamps when the session was parked (set by Put).
	DetachedAt time.Time
}

// Options configures a Store.
type Options struct {
	// TTL bounds how long a detached session is retained (default 2m).
	TTL time.Duration
	// MaxSessions caps parked sessions; the oldest is evicted when a Put
	// would exceed it (default 256).
	MaxSessions int
	// SweepEvery is the reaper period (default TTL/4, clamped to [50ms, 30s]).
	SweepEvery time.Duration
	// OnEvict observes every session dropped by TTL, capacity or Close —
	// but not ones taken back by Take. It is called without store locks
	// held, so it may call back into the store's owner.
	OnEvict func(*Session)
	// Now is the clock (tests inject a fake one; default time.Now).
	Now func() time.Time
}

// Store holds detached sessions awaiting resumption.
type Store struct {
	opts Options

	mu       sync.Mutex
	sessions map[uint64]*Session
	closed   bool
	evicted  int64

	quit chan struct{}
	done chan struct{}
}

// NewStore builds a store and starts its reaper goroutine. Call Close to
// stop it.
func NewStore(opts Options) *Store {
	if opts.TTL <= 0 {
		opts.TTL = 2 * time.Minute
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 256
	}
	if opts.SweepEvery <= 0 {
		opts.SweepEvery = opts.TTL / 4
	}
	if opts.SweepEvery < 50*time.Millisecond {
		opts.SweepEvery = 50 * time.Millisecond
	}
	if opts.SweepEvery > 30*time.Second {
		opts.SweepEvery = 30 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Store{
		opts:     opts,
		sessions: map[uint64]*Session{},
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.reap()
	return s
}

// Put parks a detached session, stamping DetachedAt unless the caller
// pre-set it (re-parking after a rejected resume attempt keeps the
// original eviction deadline — a hostile peer must not be able to extend
// a session's TTL by probing it). A session with the same ID already
// parked is replaced (the replaced one is evicted through OnEvict); when
// the store is full the oldest session is evicted to make room.
func (s *Store) Put(sess *Session) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if sess.DetachedAt.IsZero() {
		sess.DetachedAt = s.opts.Now()
	}
	var evict []*Session
	if old := s.sessions[sess.ID]; old != nil {
		evict = append(evict, old)
		delete(s.sessions, sess.ID)
	}
	for len(s.sessions) >= s.opts.MaxSessions {
		oldest := s.oldestLocked()
		if oldest == nil {
			break
		}
		delete(s.sessions, oldest.ID)
		evict = append(evict, oldest)
	}
	s.sessions[sess.ID] = sess
	s.evicted += int64(len(evict))
	s.mu.Unlock()
	s.notify(evict)
	return nil
}

// Has reports whether a session with the given ID is parked. Owners use it
// to keep parked IDs out of the fresh-assignment pool.
func (s *Store) Has(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id] != nil
}

// Take removes and returns the parked session with the given ID, verifying
// the presented epoch. Errors wrap ErrUnknown, ErrEpoch or ErrClosed.
func (s *Store) Take(id, epoch uint64) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	sess := s.sessions[id]
	if sess == nil {
		return nil, fmt.Errorf("%w: session %d", ErrUnknown, id)
	}
	if sess.Epoch != epoch && (sess.AltEpoch == 0 || sess.AltEpoch != epoch) {
		return nil, fmt.Errorf("%w: session %d detached at epoch %d, client presented %d",
			ErrEpoch, id, sess.Epoch, epoch)
	}
	delete(s.sessions, id)
	return sess, nil
}

// Steal removes and returns the parked session with the given ID without
// an epoch check. It is the cross-shard handoff path: the owner moving a
// session between two stores (serve.Manager.MoveParked) Puts the same
// *Session on its new home, where the ordinary epoch-checked Take still
// gates the client's resume. Stolen sessions do not report through OnEvict
// — they are moving, not dying.
func (s *Store) Steal(id uint64) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	sess := s.sessions[id]
	if sess == nil {
		return nil, fmt.Errorf("%w: session %d", ErrUnknown, id)
	}
	delete(s.sessions, id)
	return sess, nil
}

// IDs returns the IDs of every parked session (unordered). A shard drain
// walks this list to migrate its parked sessions elsewhere.
func (s *Store) IDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	return ids
}

// Len returns the number of parked sessions.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Evicted returns how many sessions were dropped by TTL, capacity or Close.
func (s *Store) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Sweep evicts every session older than TTL and returns how many it
// dropped. The reaper calls it periodically; tests call it directly.
func (s *Store) Sweep() int {
	s.mu.Lock()
	cutoff := s.opts.Now().Add(-s.opts.TTL)
	var evict []*Session
	for id, sess := range s.sessions {
		if sess.DetachedAt.Before(cutoff) {
			delete(s.sessions, id)
			evict = append(evict, sess)
		}
	}
	s.evicted += int64(len(evict))
	s.mu.Unlock()
	s.notify(evict)
	return len(evict)
}

// Close stops the reaper and evicts every parked session (through
// OnEvict). Idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	var evict []*Session
	for id, sess := range s.sessions {
		delete(s.sessions, id)
		evict = append(evict, sess)
	}
	s.evicted += int64(len(evict))
	s.mu.Unlock()
	close(s.quit)
	s.notify(evict)
	<-s.done
}

// oldestLocked returns the parked session with the earliest DetachedAt.
// Caller holds s.mu.
func (s *Store) oldestLocked() *Session {
	var oldest *Session
	for _, sess := range s.sessions {
		if oldest == nil || sess.DetachedAt.Before(oldest.DetachedAt) {
			oldest = sess
		}
	}
	return oldest
}

// notify delivers evictions outside the store lock so OnEvict may call
// back into the owner.
func (s *Store) notify(evicted []*Session) {
	if s.opts.OnEvict == nil {
		return
	}
	for _, sess := range evicted {
		s.opts.OnEvict(sess)
	}
}

// reap is the TTL eviction goroutine.
func (s *Store) reap() {
	defer close(s.done)
	t := time.NewTicker(s.opts.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}
