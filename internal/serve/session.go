package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/resume"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// session is one client's server-side state and, as the core.SessionObserver
// of its own core.Server, the manager's only tap into the protocol loop. It
// is built once (newSession), registered by its handshake (Assign), and then
// moves between the active registry and the resume store with srv.Observer
// still pointing at it, so nothing is re-wired on detach or resume; a move to
// another manager re-wires exactly what rebind lists.
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
// is the only way resume.Journal.Suffix ever hands it out.
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

// detach moves a live session into the resume store. It reports false —
// meaning the caller must fold and discard instead — for a session that was
// never assigned an ID or when the manager is closing.
func (m *Manager) detach(sess *session) bool {
	id, epoch, srv := sess.id, sess.epoch, sess.srv
	if id == 0 {
		return false
	}
	seq := srv.DiffSeq // once parked, a resume elsewhere may be advancing it
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
		LastSeq:  seq,
		State:    srv,
		Journal:  sess.journal,
	})
	if err != nil {
		// Store closed under us: fold the stats as a completed session.
		m.foldStats(srv)
		return true
	}
	m.tm.detached.Set(float64(m.store.Len()))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvDetach, Session: id, Epoch: uint32(epoch), Seq: seq, Shard: m.tm.shard})
	return true
}

// MoveParked moves the parked session with the given ID onto manager to — a
// cross-shard handoff or a drain migration (internal/fabric). The session
// itself moves, not a copy of it: it is stolen from this manager's store,
// rebound to the target (rebind) and parked there as if it had detached
// there, so a later Resume finds it through the ordinary epoch-checked path
// with its journal, optimizer and link-policy state as they were, and the
// TTL clock restarts. Nothing folds into either manager's stats — the
// session is moving, not completing. When the target cannot take it (its
// store closed) the session goes back where it was, deadline unchanged.
func (m *Manager) MoveParked(id uint64, to *Manager) error {
	ds, err := m.store.Steal(id)
	if err != nil {
		return err
	}
	srv := ds.State.(*core.Server)
	sess := srv.Observer.(*session)
	parkedAt := ds.DetachedAt
	sess.rebind(to)
	ds.DetachedAt = time.Time{}
	if err := to.store.Put(ds); err != nil {
		sess.rebind(m)
		ds.DetachedAt = parkedAt
		if m.store.Put(ds) != nil {
			m.foldStats(srv) // both closing: it completes here, as in detach
		}
		return fmt.Errorf("serve: moving session %d: %w", id, err)
	}
	m.tm.detached.Set(float64(m.store.Len()))
	to.tm.detached.Set(float64(to.store.Len()))
	to.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvHandoff, Session: id, Epoch: uint32(ds.Epoch), Seq: ds.LastSeq, Shard: to.tm.shard,
		Detail: fmt.Sprintf("%d->%d", m.tm.shard, to.tm.shard)})
	to.logf("session %d moved here from shard %d (epoch %d, %d journaled diffs)", id, m.tm.shard, ds.Epoch, ds.Journal.Len())
	return nil
}
