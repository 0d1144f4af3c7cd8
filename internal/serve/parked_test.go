package serve_test

// A detached session is parked in serve.Manager's registry, and a resume
// replays from its journal. These tests check the parking guarantees a
// session relies on — it is kept, taken back once under its epoch, never
// given a fresh deadline by a refused probe, and evicted at its TTL with no
// caller driving it — end to end through the manager's public API and the
// wire protocol.

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// parkManager returns a manager with a small student and the given resume
// TTL, plus a few frames to send it.
func parkManager(t *testing.T, ttl time.Duration) (*serve.Manager, []video.Frame) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1 // parking is plumbing, not distillation
	base := nn.NewStudent(nn.StudentConfig{
		InChannels: 3, NumClasses: video.NumClasses,
		Stem1: 4, Stem2: 8,
		B1: 8, B2: 12, B3: 12, B4: 12,
		B5: 8, B6: 8, Head: 8,
	}, rand.New(rand.NewSource(41)))
	m, err := serve.NewManager(serve.Options{
		Cfg:         cfg,
		Base:        base,
		Teacher:     teacher.NewOracle(7),
		MaxSessions: 4,
		ResumeTTL:   ttl,
		Logf:        t.Logf,
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
	return m, []video.Frame{gen.Next(), gen.Next()}
}

// wireClient speaks the session protocol by hand.
type wireClient struct {
	t      *testing.T
	conn   *transport.PipeConn
	done   chan error // Handle's return for conn
	frames []video.Frame
	kfSeq  uint64

	id, epoch uint64
}

// dial opens a connection into m.
func dial(t *testing.T, m *serve.Manager, frames []video.Frame) *wireClient {
	t.Helper()
	c := &wireClient{t: t, frames: frames}
	c.conn, c.done = pipe(m)
	return c
}

func pipe(m *serve.Manager) (*transport.PipeConn, chan error) {
	clientConn, serverConn := transport.Pipe(8, nil)
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- m.Handle(serverConn)
	}()
	return clientConn, done
}

func (c *wireClient) recv(want transport.MsgType) transport.Message {
	c.t.Helper()
	msg, err := c.conn.Recv()
	if err != nil {
		c.t.Fatalf("recv %v: %v", want, err)
	}
	if msg.Type != want {
		c.t.Fatalf("recv %v, want %v", msg.Type, want)
	}
	return msg
}

// open starts a fresh session, one key frame in, so it has a diff to replay.
func (c *wireClient) open() {
	c.t.Helper()
	h := transport.Hello{Version: transport.Version, NumClass: uint16(video.NumClasses)}
	if err := c.conn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(h)}); err != nil {
		c.t.Fatal(err)
	}
	ack, err := transport.DecodeHello(c.recv(transport.MsgHello).Body)
	if err != nil {
		c.t.Fatal(err)
	}
	c.id, c.epoch = ack.SessionID, ack.Epoch
	c.recv(transport.MsgStudentFull)
	c.keyFrame()
}

func (c *wireClient) keyFrame() {
	c.t.Helper()
	c.kfSeq++
	f := c.frames[int(c.kfSeq-1)%len(c.frames)]
	kf := transport.KeyFrame{FrameIndex: uint32(f.Index), Image: f.Image, Label: f.Label, Seq: c.kfSeq}
	if err := c.conn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)}); err != nil {
		c.t.Fatal(err)
	}
	c.recv(transport.MsgStudentDiff)
}

// cut severs the connection and waits for the manager to finish with it; a
// lost connection parks the session before Handle returns.
func (c *wireClient) cut() {
	c.t.Helper()
	c.conn.Close()
	if err := <-c.done; err != nil {
		c.t.Fatalf("a dropped session should park, not error: %v", err)
	}
}

// drop cuts the connection and requires the session to be parked.
func (c *wireClient) drop(m *serve.Manager) {
	c.t.Helper()
	c.cut()
	if st := m.SessionState(c.id); st != serve.SessionParked {
		c.t.Fatalf("session %d is in state %d after the drop, want parked", c.id, st)
	}
}

// resume reconnects presenting id and epoch. On success the client carries
// on over the new connection at the acked epoch; on a refusal it waits for
// the manager to fail that connection and is otherwise left as it was.
func (c *wireClient) resume(m *serve.Manager, id, epoch, lastSeq uint64) transport.ResumeAck {
	c.t.Helper()
	conn, done := pipe(m)
	req := transport.Resume{SessionID: id, Epoch: epoch, LastDiffSeq: lastSeq}
	if err := conn.Send(transport.Message{Type: transport.MsgResume, Body: transport.EncodeResume(req)}); err != nil {
		c.t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil || msg.Type != transport.MsgResumeAck {
		c.t.Fatalf("resume of session %d: %v %v", id, msg.Type, err)
	}
	ack, err := transport.DecodeResumeAck(msg.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if ack.Status != transport.ResumeReplay {
		if err := <-done; err == nil {
			c.t.Fatalf("a refused resume (%+v) must fail its connection", ack)
		}
		conn.Close()
		return ack
	}
	c.conn, c.done, c.epoch = conn, done, ack.Epoch
	for i := uint32(0); i < ack.NumDiffs; i++ {
		c.recv(transport.MsgStudentDiff)
	}
	return ack
}

func (c *wireClient) shutdown() {
	c.t.Helper()
	c.conn.Send(transport.Message{Type: transport.MsgShutdown})
	if err := <-c.done; err != nil {
		c.t.Fatalf("clean shutdown errored: %v", err)
	}
	c.conn.Close()
}

func waitState(t *testing.T, m *serve.Manager, id uint64, want serve.SessionState) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.SessionState(id) != want; {
		if time.Now().After(deadline) {
			t.Fatalf("session %d is in state %d, want %d", id, m.SessionState(id), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A parked session is found under its ID only, refused under another epoch,
// taken back once with its state intact, and gone once taken.
func TestParkedSessionTakenOnceUnderItsEpoch(t *testing.T) {
	m, frames := parkManager(t, time.Minute)
	c := dial(t, m, frames)
	c.open()
	c.drop(m)
	if m.SessionState(c.id+100) != serve.SessionNone {
		t.Fatal("an ID never handed out reads as known")
	}
	if ids := m.ParkedIDs(); len(ids) != 1 || ids[0] != c.id {
		t.Fatalf("parked IDs %v, want [%d]", ids, c.id)
	}

	if ack := c.resume(m, c.id+100, c.epoch, 0); ack.Status != transport.ResumeReject || !strings.Contains(ack.Reason, "unknown") {
		t.Fatalf("unknown id: %+v", ack)
	}
	if ack := c.resume(m, c.id, c.epoch+1, 0); ack.Status != transport.ResumeReject || !strings.Contains(ack.Reason, "epoch") {
		t.Fatalf("wrong epoch: %+v", ack)
	}
	ack := c.resume(m, c.id, c.epoch, 1)
	if ack.Status != transport.ResumeReplay || ack.HeadSeq != 1 || ack.Epoch != 2 {
		t.Fatalf("take: %+v, want a replay at head 1, epoch 2", ack)
	}
	if m.SessionState(c.id) != serve.SessionActive || len(m.ParkedIDs()) != 0 {
		t.Fatal("a taken session must no longer be parked")
	}
	if ack := c.resume(m, c.id, c.epoch, 1); ack.Status != transport.ResumeRetry {
		t.Fatalf("second take of an attached session: %+v, want retry", ack)
	}
	c.keyFrame()
	c.shutdown()
	if ack := c.resume(m, c.id, c.epoch, 2); ack.Status != transport.ResumeReject {
		t.Fatalf("take after the session ended: %+v, want reject", ack)
	}
}

// A session re-parked after a resume whose ack may never have arrived is
// taken back under the current epoch or the one before, but nothing else;
// zero is never a wildcard.
func TestParkedSessionTakenUnderCurrentOrPreviousEpoch(t *testing.T) {
	m, frames := parkManager(t, time.Minute)
	c := dial(t, m, frames)
	c.open()
	c.drop(m)
	if ack := c.resume(m, c.id, 1, 1); ack.Status != transport.ResumeReplay || ack.Epoch != 2 {
		t.Fatalf("first resume: %+v", ack)
	}
	c.drop(m) // the client never learns epoch 2

	if ack := c.resume(m, c.id, 5, 1); ack.Status != transport.ResumeReject {
		t.Fatalf("unrelated epoch: %+v, want reject", ack)
	}
	if ack := c.resume(m, c.id, 1, 1); ack.Status != transport.ResumeReplay || ack.Epoch != 3 {
		t.Fatalf("previous epoch: %+v, want a replay at epoch 3", ack)
	}
	c.shutdown()

	d := dial(t, m, frames)
	d.open()
	d.drop(m)
	if ack := d.resume(m, d.id, 0, 1); ack.Status != transport.ResumeReject {
		t.Fatalf("zero epoch for an epoch-1 session: %+v, want reject", ack)
	}
	if ack := d.resume(m, d.id, 1, 1); ack.Status != transport.ResumeReplay {
		t.Fatalf("the refused probes lost the session: %+v", ack)
	}
	d.shutdown()
}

// A refused resume probe leaves the session parked from the instant it
// first was: it expires at its original deadline, not a TTL after the probe.
func TestParkedExpiresOnFirstDeadlineDespiteRefusedProbe(t *testing.T) {
	const ttl = time.Second
	m, frames := parkManager(t, ttl)
	c := dial(t, m, frames)
	c.open()
	c.drop(m)
	time.Sleep(ttl * 6 / 10)

	probed := time.Now()
	if ack := c.resume(m, c.id, c.epoch, 99); ack.Status != transport.ResumeReject {
		t.Fatalf("client-ahead probe: %+v, want reject", ack)
	}
	waitState(t, m, c.id, serve.SessionNone)
	if held := time.Since(probed); held >= ttl {
		t.Fatalf("the session was held %v past the probe: the probe restarted its TTL of %v", held, ttl)
	}
	if st := m.Stats(); st.Evicted != 1 || st.SessionsServed != 1 {
		t.Fatalf("after expiry: %+v", st)
	}
}

// Each parked session expires a TTL after it parked: the older goes first,
// its stats fold, a late resume of it is refused, and the younger still
// resumes.
func TestParkedSessionsEvictedInTTLOrder(t *testing.T) {
	const ttl = time.Second
	m, frames := parkManager(t, ttl)
	a := dial(t, m, frames)
	a.open()
	a.drop(m)
	time.Sleep(ttl / 2)
	b := dial(t, m, frames)
	b.open()
	b.drop(m)

	waitState(t, m, a.id, serve.SessionNone)
	if st := m.Stats(); st.Evicted != 1 || st.SessionsServed != 1 {
		t.Fatalf("after the first expiry: %+v", st)
	}
	if ids := m.ParkedIDs(); len(ids) != 1 || ids[0] != b.id {
		t.Fatalf("parked IDs %v, want the younger session %d only", ids, b.id)
	}
	if ack := b.resume(m, b.id, b.epoch, 1); ack.Status != transport.ResumeReplay {
		t.Fatalf("younger session: %+v, want a replay", ack)
	}
	b.shutdown()
	if ack := a.resume(m, a.id, a.epoch, 1); ack.Status != transport.ResumeReject {
		t.Fatalf("resume after expiry: %+v, want reject", ack)
	}
}

// Expiry needs no caller: a short-TTL session leaves the registry on its own.
func TestParkedSessionExpiresWithNoCaller(t *testing.T) {
	m, frames := parkManager(t, 60*time.Millisecond)
	c := dial(t, m, frames)
	c.open()
	c.cut()
	waitState(t, m, c.id, serve.SessionNone)
	if ids := m.ParkedIDs(); len(ids) != 0 {
		t.Fatalf("parked IDs %v after expiry", ids)
	}
	if st := m.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted %d, want 1", st.Evicted)
	}
}
