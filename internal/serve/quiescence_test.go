package serve

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
)

// mirror is a protoClient that also does what core.Client.apply does with
// every diff it is sent — skip duplicates, resolve against the weights it
// holds, apply — so a test can compare those weights with the server's.
type mirror struct {
	*protoClient
	held        *nn.Student
	lastApplied uint64
	relative    []bool // per applied diff, in order
}

func (c *mirror) apply(m transport.Message) {
	c.t.Helper()
	d, err := transport.DecodeStudentDiff(m.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if d.Seq <= c.lastApplied {
		return
	}
	if d.Seq != c.lastApplied+1 {
		c.t.Fatalf("diff seq %d after %d: the chain has a gap", d.Seq, c.lastApplied)
	}
	c.relative = append(c.relative, d.Relative)
	if err := d.Resolve(c.held.Params); err != nil {
		c.t.Fatalf("diff %d: %v", d.Seq, err)
	}
	if err := nn.ApplyNamed(c.held.Params, d.Params); err != nil {
		c.t.Fatal(err)
	}
	c.lastApplied = d.Seq
}

func (c *mirror) keyFrames(n int) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		c.send()
		c.apply(c.recv(transport.MsgStudentDiff))
	}
}

// reattach resumes on m from the last applied diff and applies the replay.
func (c *mirror) reattach(m *Manager, wantReplayed uint32) {
	c.t.Helper()
	ack := c.resume(m, c.lastApplied)
	if ack.Status != transport.ResumeReplay || ack.NumDiffs != wantReplayed {
		c.t.Fatalf("resume from seq %d: %+v, want a replay of %d", c.lastApplied, ack, wantReplayed)
	}
	for i := uint32(0); i < ack.NumDiffs; i++ {
		c.apply(c.recv(transport.MsgStudentDiff))
	}
}

// requireHolds parks the session on m and compares every parameter the
// client holds, bit for bit, with what the server says it holds: the
// parked student with its View in place of the trainable subset — and,
// under raw diffs, the student itself.
func (c *mirror) requireHolds(m *Manager) {
	c.t.Helper()
	c.drop(m)
	srv := parkedSession(c.t, m, c.sessionID).srv
	if srv.DiffSeq != c.lastApplied {
		c.t.Fatalf("server is at diff %d, client applied %d", srv.DiffSeq, c.lastApplied)
	}
	want := srv.Distiller.Student.Params.Clone()
	if err := nn.ApplyNamed(want, srv.View.All()); err != nil {
		c.t.Fatal(err)
	}
	if srv.DiffCodec == "" || srv.DiffCodec == "raw" {
		want = srv.Distiller.Student.Params
	}
	moved := false
	base := tinyStudent(41)
	for _, w := range want.All() {
		got := c.held.Params.Get(w.Name).Value.Data
		for i, v := range w.Value.Data {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				c.t.Fatalf("%s[%d] = %v on the client, %v on the server", w.Name, i, got[i], v)
			}
			moved = moved || v != base.Params.Get(w.Name).Value.Data[i]
		}
	}
	if !moved {
		c.t.Fatal("distillation moved nothing; the comparison is vacuous")
	}
}

func quiescenceShard(t *testing.T, envelopeCodec, linkPolicy string) *Manager {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 2
	m, err := NewManager(Options{Cfg: cfg, Base: tinyStudent(41), Teacher: teacher.NewOracle(7),
		MaxSessions: 2, JournalDepth: 8, EnvelopeCodec: envelopeCodec, LinkPolicy: linkPolicy, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func newMirror(t *testing.T, m *Manager) *mirror {
	t.Helper()
	_, frames := resumeManager(t, 1)
	c := &mirror{protoClient: connect(t, m), held: tinyStudent(41)} // the checkpoint the handshake ships
	c.frames = frames
	c.hello(7)
	return c
}

// requireRelative fails unless every diff the client applied was relative.
func (c *mirror) requireRelative() {
	c.t.Helper()
	for i, rel := range c.relative {
		if !rel {
			c.t.Fatalf("diff %d went absolute (relative flags %v)", i+1, c.relative)
		}
	}
}

// core's TestClientHoldsServerStudentAtQuiescence, carried through the
// paths only a session manager has, under raw and int8 diffs. Diffs are
// relative, so each of these is a way for client and server to end up apart
// if the View or the journal chain were wrong.

// A diff severed in flight is journaled but never applied; the replay
// resolves against the weights the client still holds, and the session
// carries on relative.
func TestClientHoldsServerStudentAfterCutAndReplay(t *testing.T) {
	for _, tc := range []struct{ name, policy string }{{"raw", ""}, {"static:int8", "static:int8"}} {
		t.Run(tc.name, func(t *testing.T) {
			m := quiescenceShard(t, "", tc.policy)
			c := newMirror(t, m)
			c.keyFrames(3)
			c.send() // key frame 4 trains and is journaled; its diff dies with the link
			c.drop(m)
			c.reattach(m, 1)
			c.keyFrames(2)
			c.requireRelative()
			c.requireHolds(m)
		})
	}
}

// A handoff moves the session itself, so under every checkpoint codec and
// diff codec the shard it lands on holds exactly what the client does:
// every diff after the move is relative, and the journal replays on the
// new shard against the client's own weights.
func TestClientHoldsServerStudentAcrossHandoff(t *testing.T) {
	for _, tc := range []struct{ name, codec, policy string }{
		{"raw", "", ""}, {"delta+raw", "delta+raw", ""}, {"delta+int8", "delta+int8", ""},
		{"delta+int8, static:int8", "delta+int8", "static:int8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := quiescenceShard(t, tc.codec, tc.policy), quiescenceShard(t, tc.codec, tc.policy)
			c := newMirror(t, src)
			c.keyFrames(2)
			c.send() // diff 3 travels in the session's journal
			c.drop(src)
			if err := src.MoveParked(c.sessionID, dst); err != nil {
				t.Fatal(err)
			}
			c.reattach(dst, 1)
			c.keyFrames(3)
			c.requireRelative()
			c.requireHolds(dst)
		})
	}
}

// A move onto a shard with another freeze cut changes what a diff carries.
// The View does not name those parameters, so the first diff there goes
// absolute and the View becomes what it decodes to: the client still holds
// the View bit for bit, and every later diff is relative again.
func TestClientHoldsServerViewAcrossFreezeChange(t *testing.T) {
	src := quiescenceShard(t, "", "static:int8")
	cfg := core.DefaultConfig()
	cfg.MaxUpdates, cfg.Partial = 2, false
	dst, err := NewManager(Options{Cfg: cfg, Base: tinyStudent(41), Teacher: teacher.NewOracle(7),
		MaxSessions: 2, JournalDepth: 8, LinkPolicy: "static:int8", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	c := newMirror(t, src)
	c.keyFrames(2)
	c.drop(src)
	if err := src.MoveParked(c.sessionID, dst); err != nil {
		t.Fatal(err)
	}
	c.reattach(dst, 0)
	c.keyFrames(3)
	if want := []bool{true, true, false, true, true}; !slices.Equal(c.relative, want) {
		t.Fatalf("relative flags %v, want %v", c.relative, want)
	}
	c.requireHolds(dst)
}
