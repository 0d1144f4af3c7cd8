package serve

import (
	"math"
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
// client holds with the parked server student's, bit for bit.
func (c *mirror) requireHolds(m *Manager) {
	c.t.Helper()
	c.drop(m)
	parked, err := m.store.Steal(c.sessionID)
	if err != nil {
		c.t.Fatal(err)
	}
	srv := parked.State.(*core.Server)
	if srv.DiffSeq != c.lastApplied {
		c.t.Fatalf("server is at diff %d, client applied %d", srv.DiffSeq, c.lastApplied)
	}
	moved := false
	base := tinyStudent(41)
	for _, want := range srv.Distiller.Student.Params.All() {
		got := c.held.Params.Get(want.Name).Value.Data
		for i, v := range want.Value.Data {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				c.t.Fatalf("%s[%d] = %v on the client, %v on the server", want.Name, i, got[i], v)
			}
			moved = moved || v != base.Params.Get(want.Name).Value.Data[i]
		}
	}
	if !moved {
		c.t.Fatal("distillation moved nothing; the comparison is vacuous")
	}
}

func quiescenceShard(t *testing.T, envelopeCodec string) *Manager {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 2
	m, err := NewManager(Options{Cfg: cfg, Base: tinyStudent(41), Teacher: teacher.NewOracle(7),
		MaxSessions: 2, JournalDepth: 8, EnvelopeCodec: envelopeCodec, Logf: t.Logf})
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

// core's TestClientHoldsServerStudentAtQuiescence, carried through the
// paths only a session manager has. Diffs are relative, so each of these
// is a way for client and server to end up apart if the reference rule or
// the journal chain were wrong.

// A diff severed in flight is journaled but never applied; the replay
// resolves against the weights the client still holds, and the session
// carries on relative.
func TestClientHoldsServerStudentAfterCutAndReplay(t *testing.T) {
	m := quiescenceShard(t, "")
	c := newMirror(t, m)
	c.keyFrames(3)
	c.send() // key frame 4 trains and is journaled; its diff dies with the link
	c.drop(m)
	c.reattach(m, 1)
	c.keyFrames(2)
	for i, rel := range c.relative {
		if !rel {
			t.Fatalf("diff %d went absolute; nothing in this session was lossy", i+1)
		}
	}
	c.requireHolds(m)
}

// A handoff moves the session itself, so under every checkpoint codec the
// shard it lands on holds exactly what the client does: every diff after
// the move is relative, and the journal replays on the new shard against
// the client's own, exact, weights.
func TestClientHoldsServerStudentAcrossHandoff(t *testing.T) {
	for _, tc := range []struct{ name, codec string }{{"raw", ""}, {"delta+raw", "delta+raw"}, {"delta+int8", "delta+int8"}} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := quiescenceShard(t, tc.codec), quiescenceShard(t, tc.codec)
			c := newMirror(t, src)
			c.keyFrames(2)
			c.send() // diff 3 travels in the session's journal
			c.drop(src)
			if err := src.MoveParked(c.sessionID, dst); err != nil {
				t.Fatal(err)
			}
			c.reattach(dst, 1)
			c.keyFrames(3)
			for i, rel := range c.relative {
				if !rel {
					t.Fatalf("diff %d went absolute; a move is exact (relative flags %v)", i+1, c.relative)
				}
			}
			c.requireHolds(dst)
		})
	}
}
