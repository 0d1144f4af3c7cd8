package serve

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// moveShard is one shard of a fabric as the move tests need it: the
// tinyStudent(41) base every shard of a fabric shares, a checkpoint codec,
// and a noise-free oracle — the stock one consumes its rng per Infer, so a
// session that changed teachers would train on other labels than its unmoved
// twin and no byte comparison between the two would hold.
func moveShard(t *testing.T, codecName string) (*Manager, []video.Frame) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1
	tch := teacher.NewOracle(7)
	tch.BoundaryNoise, tch.MissRate = 0, 0
	m, err := NewManager(Options{
		Cfg:           cfg,
		Base:          tinyStudent(41),
		Teacher:       tch,
		MaxSessions:   4,
		JournalDepth:  8,
		EnvelopeCodec: codecName,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 53))
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]video.Frame, 12)
	for i := range frames {
		frames[i] = gen.Next()
	}
	return m, frames
}

// trainAndPark drives a fresh session on m through keyFrames key frames —
// nontrivial weights, Adam moments, sequence counters and journal — and
// parks it.
func trainAndPark(t *testing.T, m *Manager, frames []video.Frame, keyFrames int) *protoClient {
	t.Helper()
	p := connect(t, m)
	p.frames = frames
	p.hello(7)
	for i := 0; i < keyFrames; i++ {
		p.keyFrame()
	}
	p.drop(m)
	return p
}

// diffBodies resumes p on m at the head and returns the next n diffs as
// they crossed the wire.
func diffBodies(t *testing.T, p *protoClient, m *Manager, head uint64, n int) [][]byte {
	t.Helper()
	if ack := p.resume(m, head); ack.Status != transport.ResumeReplay || ack.NumDiffs != 0 {
		t.Fatalf("resume at the head: %+v", ack)
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		p.send()
		bodies[i] = p.recv(transport.MsgStudentDiff).Body
	}
	p.shutdown()
	return bodies
}

// parkedSession returns the session parked on m under id, leaving it there.
func parkedSession(t *testing.T, m *Manager, id uint64) *session {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.parked[id]
	if s == nil {
		t.Fatalf("session %d is not parked on shard %d", id, m.tm.shard)
	}
	return s
}

// peek returns a view of the parked session without disturbing it.
func peek(t *testing.T, m *Manager, id uint64) *parkedView {
	t.Helper()
	s := parkedSession(t, m, id)
	srv := s.srv
	v := &parkedView{
		sess: s, srv: srv, student: srv.Distiller.Student, opt: srv.Distiller.Opt,
		journal: s.journal,
		id:      s.id, epoch: s.epoch, parkedAt: s.parkedAt,
		diffSeq: srv.DiffSeq, lastKFSeq: srv.LastKFSeq,
		steps: srv.Distiller.TotalSteps, trains: srv.Distiller.TotalTrains, stepTime: srv.Distiller.TotalStepTime,
		weights: nn.CloneNamed(srv.Distiller.Student.Params.All()), view: nn.CloneNamed(srv.View.All()),
	}
	entries, _ := s.journal.suffix(0)
	for _, e := range entries {
		v.entries = append(v.entries, append([]byte(nil), e.body...))
	}
	return v
}

// parkedView is everything a move must keep: the objects by identity, the
// values by copy.
type parkedView struct {
	sess, srv, student, opt, journal any

	id, epoch, diffSeq, lastKFSeq uint64
	steps, trains                 int
	stepTime                      time.Duration
	parkedAt                      time.Time
	weights, view                 *nn.ParamSet
	entries                       [][]byte
}

func requireBitEqual(t *testing.T, what string, got []*nn.Parameter, want *nn.ParamSet) {
	t.Helper()
	for _, g := range got {
		w := want.Get(g.Name)
		if w == nil || !w.Value.SameShape(g.Value) {
			t.Fatalf("%s: %q missing or reshaped", what, g.Name)
		}
		for i, v := range g.Value.Data {
			if math.Float32bits(v) != math.Float32bits(w.Value.Data[i]) {
				t.Fatalf("%s: %s[%d] = %v, was %v", what, g.Name, i, v, w.Value.Data[i])
			}
		}
	}
}

// A move moves the session, not a copy of it: under every checkpoint codec,
// and between shards configured with different ones, the server, student, optimizer and journal parked on the target
// are the objects that were parked on the source, the counters and epochs
// read the same, no weight changed a bit, neither manager counts a
// completion or an eviction, and the TTL clock restarted. What no probe
// reaches — Adam's moments and step — is checked by what it does: the moved
// session's next diffs are byte for byte those of a twin that never moved.
func TestMoveParkedMovesTheSessionItself(t *testing.T) {
	for _, tc := range []struct{ name, src, dst string }{
		{"raw", "", ""}, {"delta+raw", "delta+raw", "delta+raw"}, {"delta+int8", "delta+int8", "delta+int8"},
		// Shards need not agree on a checkpoint codec for a session to move.
		{"raw-to-delta+int8", "", "delta+int8"}, {"delta+raw-to-raw", "delta+raw", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, frames := moveShard(t, tc.src)
			dst, _ := moveShard(t, tc.dst)
			home, _ := moveShard(t, tc.src)
			p := trainAndPark(t, src, frames, 3)
			twin := trainAndPark(t, home, frames, 3)

			before := peek(t, src, p.sessionID)
			if before.steps == 0 || len(before.entries) != 3 {
				t.Fatalf("session parked with %d steps and %d journaled diffs; the test exercises nothing", before.steps, len(before.entries))
			}
			moved := time.Now()
			if err := src.MoveParked(p.sessionID, dst); err != nil {
				t.Fatal(err)
			}
			if src.SessionState(p.sessionID) != SessionNone || dst.SessionState(p.sessionID) != SessionParked {
				t.Fatal("the session is not parked on the target alone")
			}
			after := peek(t, dst, p.sessionID)
			if after.sess != before.sess || after.srv != before.srv || after.student != before.student ||
				after.opt != before.opt || after.journal != before.journal {
				t.Error("the target holds a copy: session, server, student, optimizer and journal must be the same objects")
			}
			if srv := after.srv.(*core.Server); srv.Observer.(*session).m != dst || srv.Teacher != dst.teacher || srv.Checkpoint != dst.ck {
				t.Error("the session is not bound to the target's manager, teacher and checkpoint codec")
			}
			if after.id != before.id || after.epoch != before.epoch ||
				after.diffSeq != before.diffSeq || after.lastKFSeq != before.lastKFSeq {
				t.Errorf("identity, epochs or sequence counters changed: %+v, were %+v", after, before)
			}
			// Nothing is re-encoded under any codec: what the server says the
			// client holds is unchanged, and after raw diffs it is the student.
			requireBitEqual(t, "moved view", after.view.All(), before.view)
			requireBitEqual(t, "view beside the student", after.view.All(), after.weights)
			if after.steps != before.steps || after.trains != before.trains || after.stepTime != before.stepTime {
				t.Error("distillation counters changed")
			}
			requireBitEqual(t, "moved student", after.weights.All(), before.weights)
			if len(after.entries) != len(before.entries) {
				t.Fatalf("journal holds %d diffs, held %d", len(after.entries), len(before.entries))
			}
			for i := range after.entries {
				if !bytes.Equal(after.entries[i], before.entries[i]) {
					t.Errorf("journal entry %d changed", i)
				}
			}
			if after.parkedAt.Before(moved) {
				t.Error("the TTL clock did not restart on the target")
			}
			for _, m := range []*Manager{src, dst} {
				if st := m.Stats(); st.SessionsServed != 0 || st.Evicted != 0 || st.Detached != map[*Manager]int{src: 0, dst: 1}[m] {
					t.Errorf("a move is neither a completion nor an eviction: %+v", st)
				}
			}

			got := diffBodies(t, p, dst, 3, 2)
			want := diffBodies(t, twin, home, 3, 2)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("diff %d after the move differs from the unmoved twin's: optimizer or student state did not travel", 4+i)
				}
			}
		})
	}
}

// A moved session is a first-class parked session: the client resumes it on
// the target manager with a journal replay (no full checkpoint) and keeps
// streaming — the end-to-end contract of a cross-shard handoff.
func TestImportParkedResumesWithReplay(t *testing.T) {
	src, frames := moveShard(t, "")
	dst, _ := moveShard(t, "")
	p := trainAndPark(t, src, frames, 3)
	if err := src.MoveParked(p.sessionID, dst); err != nil {
		t.Fatal(err)
	}
	if src.SessionState(p.sessionID) != SessionNone {
		t.Fatal("the move left the session behind")
	}
	if dst.SessionState(p.sessionID) != SessionParked {
		t.Fatal("the move did not park the session")
	}

	// The client applied diff 1 of 3: the replay must cover exactly 2 and 3.
	ack := p.resume(dst, 1)
	if ack.Status != transport.ResumeReplay {
		t.Fatalf("resume status %v, want replay", ack.Status)
	}
	if ack.NumDiffs != 2 {
		t.Fatalf("replayed %d diffs, want 2", ack.NumDiffs)
	}
	for i := 0; i < int(ack.NumDiffs); i++ {
		p.recv(transport.MsgStudentDiff)
	}
	d := p.keyFrame()
	if d.Seq != 4 {
		t.Fatalf("post-handoff diff seq %d, want 4", d.Seq)
	}
	p.shutdown()

	st := dst.Stats()
	if st.ResumeReplays != 1 || st.ResumeFulls != 0 {
		t.Errorf("dst stats %+v, want one replay resume", st)
	}
}

// A move onto a manager that cannot take the session (closed) is not a
// loss: the session is back on the source, bound to it, parked from the
// instant it had (so only the TTL it had left remains), and resumes there.
func TestMoveParkedOntoClosedManagerStaysPut(t *testing.T) {
	src, frames := moveShard(t, "")
	dst, _ := moveShard(t, "")
	p := trainAndPark(t, src, frames, 3)
	before := peek(t, src, p.sessionID)
	dst.Close()
	if err := src.MoveParked(p.sessionID, dst); err == nil {
		t.Fatal("a closed manager accepted a session")
	}
	if src.SessionState(p.sessionID) != SessionParked || dst.SessionState(p.sessionID) != SessionNone {
		t.Fatal("the session is not parked on the source alone")
	}
	after := peek(t, src, p.sessionID)
	if after.sess != before.sess || !after.parkedAt.Equal(before.parkedAt) {
		t.Error("the failed move replaced the session or moved its eviction deadline")
	}
	srv := after.srv.(*core.Server)
	if srv.Observer.(*session).m != src || srv.Teacher != src.teacher {
		t.Error("the session came back still bound to the manager that refused it")
	}
	if st := src.Stats(); st.SessionsServed != 0 || st.Evicted != 0 || st.Detached != 1 {
		t.Errorf("source stats after the failed move: %+v", st)
	}
	if err := src.MoveParked(p.sessionID+1, dst); err == nil {
		t.Error("moving an unknown session reported success")
	}
	if d := diffBodies(t, p, src, 3, 1); len(d[0]) == 0 {
		t.Error("the session no longer trains on the source")
	}
}

// Stats folding is associative and total — shards start empty, so the fold
// must tolerate zero-session operands, and a router must get the same
// aggregate regardless of fold order (satellite: no divide-by-zero, no
// double counting, means derived from summed numerators/denominators).
func TestStatsFoldAssociative(t *testing.T) {
	var zero Stats
	if zero.MeanDistillSteps() != 0 || zero.MeanStepLatency() != 0 {
		t.Fatal("zero-session means must be 0")
	}
	a := Stats{SessionsServed: 2, KeyFrames: 10, DistillSteps: 40, DistillTime: 4 * time.Second}
	b := Stats{SessionsServed: 1, KeyFrames: 5, DistillSteps: 0}
	c := Stats{KeyFrames: 0, DistillSteps: 0} // an idle shard

	ab_c := a.Add(b).Add(c)
	a_bc := a.Add(b.Add(c))
	if ab_c != a_bc {
		t.Errorf("fold not associative: %+v vs %+v", ab_c, a_bc)
	}
	if got := ab_c.MeanDistillSteps(); got != 40.0/15.0 {
		t.Errorf("folded mean steps %.4f, want %.4f", got, 40.0/15.0)
	}
	if got := a.Add(zero); got != a {
		t.Errorf("zero is not the fold identity: %+v", got)
	}
	if got := c.Add(c).MeanDistillSteps(); got != 0 {
		t.Errorf("idle fold mean %v, want 0", got)
	}
}

// The byte counters fold associatively through Stats.Add like every other
// field, so fabric aggregation cannot lose or double-count them.
func TestStatsFoldCarriesByteCounters(t *testing.T) {
	a := Stats{CheckpointBytes: 10, CheckpointBaseline: 100, DistillTime: time.Second}
	b := Stats{CheckpointBytes: 1, FullResendBytes: 3, FullResendBaseline: 30}
	got := a.Add(b)
	want := Stats{CheckpointBytes: 11, CheckpointBaseline: 100, FullResendBytes: 3, FullResendBaseline: 30, DistillTime: time.Second}
	if got != want {
		t.Errorf("fold: %+v want %+v", got, want)
	}
}
