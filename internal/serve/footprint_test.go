package serve

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// footprintShard is a shard over base at the default student size, which is
// what a session's bytes are measured against, with live telemetry.
func footprintShard(t *testing.T, base *nn.Student, partial bool) *Manager {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxUpdates, cfg.Partial = 2, partial
	m, err := NewManager(Options{Cfg: cfg, Base: base, Teacher: noiselessOracle(), MaxSessions: 4,
		Telemetry: telemetry.New(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func defaultBase() *nn.Student {
	return nn.NewStudent(nn.DefaultStudentConfig(), rand.New(rand.NewSource(5)))
}

// footprintClient opens a session on m and sends it keyFrames key frames.
func footprintClient(t *testing.T, m *Manager, keyFrames int) *protoClient {
	t.Helper()
	_, frames := resumeManager(t, 1)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	for i := 0; i < keyFrames; i++ {
		p.keyFrame()
	}
	return p
}

func activeSession(t *testing.T, m *Manager, id uint64) *session {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.active[id]
	if s == nil {
		t.Fatalf("session %d is not attached to shard %d", id, m.tm.shard)
	}
	return s
}

// Between key frames a session holds no scratch: every workspace lease of a
// Train — the training context's and the key frame's Prefix activations —
// went back to the pool before its diff left, attached or parked.
func TestSessionHoldsNoScratchBetweenKeyFrames(t *testing.T) {
	m := footprintShard(t, defaultBase(), true)
	p := footprintClient(t, m, 2)
	for _, state := range []string{"attached", "parked"} {
		var sess *session
		if state == "attached" {
			sess = activeSession(t, m, p.sessionID)
		} else {
			p.drop(m)
			sess = parkedSession(t, m, p.sessionID)
		}
		if sess.srv.Distiller.TotalSteps == 0 {
			t.Fatal("no key frame took a step; the test exercises nothing")
		}
		if _, leased := sess.srv.Distiller.Footprint(); leased != 0 {
			t.Errorf("%s session holds %d workspace leases after its key frames, want none", state, leased)
		}
	}
}

// A session with a full journal owns at most 2 MB beyond the frozen prefix
// it shares with its shard: trainable suffix, Adam moments, View, best
// snapshot and journal. The shard's gauge reads what its sessions own,
// records without allocating, and returns to 0 when they are gone.
func TestSessionOwnsItsStateNotThePrefix(t *testing.T) {
	m := footprintShard(t, defaultBase(), true)
	p := footprintClient(t, m, m.opts.JournalDepth+1)
	p.drop(m)
	sess := parkedSession(t, m, p.sessionID)
	sess.account(true)
	owned := sess.bytes
	t.Logf("a parked session owns %d bytes (%d journaled)", owned, sess.journal.bytes())
	if owned > 2<<20 {
		t.Errorf("a session owns %d bytes, want ≤ 2 MB", owned)
	}
	if got := m.tm.sessionBytes.Value(); got != float64(owned) {
		t.Errorf("shadowtutor_session_bytes reads %v, the session owns %d", got, owned)
	}
	if n := testing.AllocsPerRun(20, func() { sess.account(true) }); n != 0 {
		t.Errorf("recording the gauge allocates %v times, want 0", n)
	}
	m.Close()
	if got := m.tm.sessionBytes.Value(); got != 0 {
		t.Errorf("after every session left, shadowtutor_session_bytes reads %v, want 0", got)
	}
}

// Two sessions on a partial shard read the Base's frozen tensors themselves
// and copy only what they train.
func TestSessionsShareTheBasePrefix(t *testing.T) {
	base := defaultBase()
	m := footprintShard(t, base, true)
	a, b := footprintClient(t, m, 1), footprintClient(t, m, 1)
	t.Cleanup(func() { a.conn.Close(); b.conn.Close() })
	for _, c := range []*protoClient{a, b} {
		ps := activeSession(t, m, c.sessionID).srv.Distiller.Student.Params
		trains := map[*nn.Parameter]bool{}
		for _, p := range nn.TrainableSubset(ps) {
			trains[p] = true
		}
		if len(trains) == len(ps.All()) {
			t.Fatal("the session trains every parameter; the test exercises nothing")
		}
		for _, p := range ps.All() {
			shared := p.Value == base.Params.Get(p.Name).Value
			if shared == trains[p] || p.Shared != shared {
				t.Fatalf("session %d: %s is the Base's tensor: %v (flag %v), trains: %v; want the Base's own tensor exactly when it does not train",
					c.sessionID, p.Name, shared, p.Shared, trains[p])
			}
		}
	}
}

// A session moved onto a full-distillation shard copies the prefix it shared
// before its first step there, and training there leaves the Base's bits
// as they were.
func TestMoveToFullDistillationCopiesThePrefix(t *testing.T) {
	base := defaultBase()
	before := nn.HashParams(base.Params.All())
	src, dst := footprintShard(t, base, true), footprintShard(t, base, false)
	p := footprintClient(t, src, 2)
	p.drop(src)
	if err := src.MoveParked(p.sessionID, dst); err != nil {
		t.Fatal(err)
	}
	for _, q := range parkedSession(t, dst, p.sessionID).srv.Distiller.Student.Params.All() {
		if q.Shared || q.Value == base.Params.Get(q.Name).Value {
			t.Fatalf("%s is still the Base's tensor on a full-distillation shard", q.Name)
		}
	}
	if ack := p.resume(dst, 2); ack.Status != transport.ResumeReplay {
		t.Fatalf("resume on the target: %+v", ack)
	}
	p.keyFrame()
	p.keyFrame()
	p.shutdown()
	if nn.HashParams(base.Params.All()) != before {
		t.Fatal("training on the full-distillation shard wrote the Base")
	}
	if st := dst.Stats(); st.DistillSteps == 0 {
		t.Fatal("no step ran on the target; the test exercises nothing")
	}
}
