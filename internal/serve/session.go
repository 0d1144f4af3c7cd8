package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// session is one client's server-side state and, as the core.SessionObserver
// of its own core.Server, the manager's only tap into the protocol loop. It
// is built once (newSession), registered by its handshake (Assign), and then
// moves between the manager's active and parked maps with srv.Observer still
// pointing at it, so nothing is re-wired on detach or resume; a move to
// another manager re-wires exactly what rebind lists.
type session struct {
	m       *Manager
	id      uint64
	epoch   uint64
	srv     *core.Server
	journal *journal

	// While parked, under the mutex of the manager that holds it: when it
	// parked, and the timer that evicts it ResumeTTL later.
	parkedAt time.Time
	expiry   *time.Timer
}

// newSession builds the per-session state: a private clone of the checkpoint
// with its own distiller and optimizer behind the shared batched teacher, a
// replay journal of the given depth, and this manager's link policy.
func (m *Manager) newSession(journalDepth int) *session {
	s := &session{m: m, journal: newJournal(journalDepth)}
	s.srv = core.NewServer(m.opts.Cfg, m.opts.Base.Clone(), m.batcher)
	s.srv.Observer = s
	s.srv.Checkpoint = m.ck
	if m.opts.LinkPolicy != "" {
		// NewManager validated the name, so this cannot fail.
		s.srv.Policy, _ = core.PolicyByName(m.opts.LinkPolicy)
	}
	return s
}

// rebind points a parked session at the manager it is moving to. It owns the
// list of what in a session is bound to the shard it lives on; everything
// else — student, Adam moments and step, DiffSeq/LastKFSeq, the View of what
// the client holds (which no codec re-encodes on the way), epochs, journal,
// the link policy with its hysteresis state, the distill counters — travels
// by being the same object.
func (s *session) rebind(to *Manager) {
	s.m = to // registry, aggregate stats, telemetry handles and shard label
	s.srv.Teacher = to.batcher
	s.srv.Checkpoint = to.ck
	s.srv.Cfg = to.opts.Cfg
	s.srv.Distiller.SetConfig(to.opts.Cfg)
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

// Diff implements core.SessionObserver: every encoded diff body, verbatim,
// enters the replay journal. A relative diff
// is cut against its predecessor's result, so the journal is a chain: it
// replays from the client's last applied Seq onwards or not at all, which
// is the only way journal.suffix ever hands it out.
func (s *session) Diff(seq uint64, body []byte) { s.journal.append(seq, body) }

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
	// already be re-stamping the session's epoch and advancing its diff seq.
	id, epoch, srv := sess.id, sess.epoch, sess.srv
	err := srv.Loop(conn)
	seq := srv.DiffSeq
	if errors.Is(err, core.ErrConnLost) && m.detach(sess) {
		m.logf("session %d detached at epoch %d (diff seq %d): %v", id, epoch, seq, err)
		return nil
	}
	m.unregister(id)
	if err != nil && !errors.Is(err, core.ErrConnLost) {
		m.logf("session %d ended with error: %v", id, err)
		return fmt.Errorf("serve: session %d: %w", id, err)
	}
	if err != nil {
		m.logf("session %d ended: connection lost while shutting down", id)
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

	entries, complete := sess.journal.suffix(req.LastDiffSeq)
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
			if err := conn.Send(transport.Message{Type: transport.MsgStudentDiff, Body: e.body}); err != nil {
				return m.redetach(sess, err)
			}
		}
		m.countResume(true)
		m.logf("session %d resumed at epoch %d: replayed %d of %d journaled diffs",
			sess.id, sess.epoch, len(entries), sess.journal.len())
	} else {
		// Resume requests carry the base hash as Hello does, so the
		// full-resend fallback — the dominant checkpoint cost under churn —
		// goes base-relative whenever the client proved it holds the base.
		actual, baseline, err := srv.SendCheckpoint(conn, req.BaseHash)
		if errors.Is(err, core.ErrConnLost) {
			return m.redetach(sess, err)
		}
		if err != nil {
			m.unregister(sess.id)
			return err
		}
		m.countFullResend(actual, baseline)
		m.countResume(false)
		m.logf("session %d resumed at epoch %d: journal gap too old (asked for > %d, tail %d), sent full checkpoint",
			sess.id, sess.epoch, req.LastDiffSeq, sess.journal.tail())
	}
	return m.runSession(conn, sess)
}

// reattach validates a resume request and, on success, atomically moves
// the session from parked back to active under a fresh epoch. On failure it
// returns a nil session plus the rejection ack and reason, and leaves a
// parked session as it was.
func (m *Manager) reattach(req transport.Resume) (*session, transport.ResumeAck, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	reject := func(status transport.ResumeStatus, reason string) (*session, transport.ResumeAck, string) {
		return nil, transport.ResumeAck{Status: status, Reason: reason}, reason
	}
	if m.closed {
		return reject(transport.ResumeReject, "server shutting down")
	}
	if m.active[req.SessionID] != nil {
		// The previous connection has not been torn down yet (the server
		// may not have observed the drop); the client should back off and
		// retry.
		return reject(transport.ResumeRetry, fmt.Sprintf("session %d still attached", req.SessionID))
	}
	sess := m.parked[req.SessionID]
	if sess == nil {
		return reject(transport.ResumeReject, fmt.Sprintf("session %d unknown or expired", req.SessionID))
	}
	// Accept the previous epoch too: the ack that carried the current one
	// may have died on the wire with the drop that parked the session,
	// leaving the client legitimately one generation behind. A session is
	// re-attached at most once per park, so this cannot fork. Zero is never
	// a match.
	if e := req.Epoch; e == 0 || (e != sess.epoch && e != sess.epoch-1) {
		return reject(transport.ResumeReject,
			fmt.Sprintf("session %d parked at epoch %d, client presented %d", sess.id, sess.epoch, e))
	}
	srv := sess.srv
	if req.LastDiffSeq > srv.DiffSeq {
		// The client claims diffs this session never produced: a confused
		// or hostile peer. The session stays parked as it was — same epoch,
		// same eviction deadline, so probing cannot extend the TTL — and
		// only this connection fails.
		return reject(transport.ResumeReject,
			fmt.Sprintf("client claims diff seq %d past server head %d", req.LastDiffSeq, srv.DiffSeq))
	}
	sess.expiry.Stop()
	delete(m.parked, sess.id)
	sess.epoch++
	m.active[sess.id] = sess
	m.tm.active.Set(float64(len(m.active)))
	m.tm.detached.Set(float64(len(m.parked)))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvResume, Session: sess.id, Epoch: uint32(sess.epoch), Seq: srv.DiffSeq, Shard: m.tm.shard})
	return sess, transport.ResumeAck{Epoch: sess.epoch, HeadSeq: srv.DiffSeq}, ""
}

// redetach parks a session whose resumed connection failed before or
// during replay — the state is still intact, a later resume may succeed
// (reattach accepts the previous epoch too, since this ack may never have
// arrived).
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

// detach moves a live session from active to parked in one critical
// section, so no lookup ever finds it in neither. It reports false —
// meaning the caller must fold and discard instead — for a session that was
// never assigned an ID or when the manager is closing.
func (m *Manager) detach(sess *session) bool {
	if sess.id == 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	if !m.parkLocked(sess, now, now) {
		return false
	}
	delete(m.active, sess.id)
	m.tm.active.Set(float64(len(m.active)))
	m.tm.trace.Record(telemetry.Event{Time: now, Kind: telemetry.EvDetach, Session: sess.id, Epoch: uint32(sess.epoch), Seq: sess.srv.DiffSeq, Shard: m.tm.shard})
	return true
}

// parkLocked parks sess on m as of at, arming its expiry for the TTL left
// at now, and reports false when m is closing (nothing parks then, so Close
// evicts every parked session once). When MaxSessions sessions are already
// parked, the oldest is evicted to make room. Caller holds m.mu.
func (m *Manager) parkLocked(sess *session, at, now time.Time) bool {
	if m.closed {
		return false
	}
	if len(m.parked) >= m.opts.MaxSessions {
		var oldest *session
		for _, p := range m.parked {
			if oldest == nil || p.parkedAt.Before(oldest.parkedAt) {
				oldest = p
			}
		}
		m.evictLocked(oldest)
	}
	sess.parkedAt = at
	sess.expiry = time.AfterFunc(m.opts.ResumeTTL-now.Sub(at), func() { m.expire(sess, at) })
	m.parked[sess.id] = sess
	m.tm.detached.Set(float64(len(m.parked)))
	return true
}

// expire is the TTL timer's callback. A timer that fired as its session was
// being re-attached or moved finds it gone, or parked from another instant,
// and does nothing.
func (m *Manager) expire(sess *session, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.parked[sess.id] == sess && sess.parkedAt.Equal(at) {
		m.evictLocked(sess)
	}
}

// evictLocked drops a parked session — its TTL ran out, the parked cap
// needed its slot, or the manager is closing — and the session completes,
// so its stats fold. Caller holds m.mu.
func (m *Manager) evictLocked(sess *session) {
	sess.expiry.Stop()
	delete(m.parked, sess.id)
	m.foldStatsLocked(sess.srv)
	m.agg.Evicted++
	m.tm.evicted.Inc()
	m.tm.detached.Set(float64(len(m.parked)))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvEvict, Session: sess.id, Epoch: uint32(sess.epoch), Seq: sess.srv.DiffSeq, Shard: m.tm.shard})
}

// MoveParked moves the parked session with the given ID onto manager to — a
// cross-shard handoff or a drain migration (internal/fabric). The session
// itself moves, not a copy of it: it leaves this manager's parked map, is
// rebound to the target (rebind) and parked there as if it had detached
// there, so a later Resume finds it through the ordinary epoch-checked path
// with its journal, optimizer and link-policy state as they were, and the
// TTL clock restarts. Nothing folds into either manager's stats — the
// session is moving, not completing. When the target cannot take it (it is
// closing) the session goes back where it was with the TTL it had left.
// The two managers' locks are never held together.
func (m *Manager) MoveParked(id uint64, to *Manager) error {
	m.mu.Lock()
	sess := m.parked[id]
	if sess == nil {
		m.mu.Unlock()
		return fmt.Errorf("serve: session %d is not parked here", id)
	}
	sess.expiry.Stop()
	delete(m.parked, id)
	m.tm.detached.Set(float64(len(m.parked)))
	parkedAt, epoch, seq := sess.parkedAt, sess.epoch, sess.srv.DiffSeq
	m.mu.Unlock()

	sess.rebind(to)
	now := time.Now()
	to.mu.Lock()
	ok := to.parkLocked(sess, now, now)
	to.mu.Unlock()
	if !ok {
		sess.rebind(m)
		m.mu.Lock()
		if !m.parkLocked(sess, parkedAt, now) {
			m.foldStatsLocked(sess.srv) // both closing: it completes here, as in detach
		}
		m.mu.Unlock()
		return fmt.Errorf("serve: moving session %d: %w", id, ErrClosed)
	}
	to.tm.trace.Record(telemetry.Event{Time: now, Kind: telemetry.EvHandoff, Session: id, Epoch: uint32(epoch), Seq: seq, Shard: to.tm.shard,
		Detail: fmt.Sprintf("%d->%d", m.tm.shard, to.tm.shard)})
	to.logf("session %d moved here from shard %d (epoch %d, %d journaled diffs)", id, m.tm.shard, epoch, sess.journal.len())
	return nil
}
