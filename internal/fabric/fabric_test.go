package fabric

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// tinyBase mirrors the serve tests' reduced student: same architecture
// shape as the paper's, sized so race-detector runs stay fast.
func tinyBase(seed int64) *nn.Student {
	cfg := nn.StudentConfig{
		InChannels: 3, NumClasses: video.NumClasses,
		Stem1: 4, Stem2: 8,
		B1: 8, B2: 12, B3: 12, B4: 12,
		B5: 8, B6: 8, Head: 8,
	}
	return nn.NewStudent(cfg, rand.New(rand.NewSource(seed)))
}

func testRouter(t *testing.T, shards, perShard int) *Router {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1 // fabric tests exercise routing, not distillation
	base := tinyBase(41)
	r, err := NewRouter(Options{
		Shards: shards,
		Shard: func(i int) serve.Options {
			return serve.Options{
				Cfg:          cfg,
				Base:         base,
				Teacher:      teacher.NewOracle(7 + int64(i)),
				MaxSessions:  perShard,
				JournalDepth: 8,
				Logf:         t.Logf,
			}
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func testFrames(t *testing.T, n int) []video.Frame {
	t.Helper()
	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 53))
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]video.Frame, n)
	for i := range frames {
		frames[i] = gen.Next()
	}
	return frames
}

// idOnShard returns the k-th smallest session ID homed on the given shard
// in an n-shard fabric.
func idOnShard(shard, k, n int) uint64 {
	hits := 0
	for id := uint64(1); ; id++ {
		if ShardFor(id, n) == shard {
			if hits == k {
				return id
			}
			hits++
		}
	}
}

// fclient drives the wire protocol by hand against a Router, mirroring the
// serve package's protoClient.
type fclient struct {
	t    *testing.T
	r    *Router
	conn *transport.PipeConn
	done chan error

	sessionID uint64
	epoch     uint64
	frames    []video.Frame
	kfSeq     uint64
}

func fconnect(t *testing.T, r *Router, frames []video.Frame) *fclient {
	t.Helper()
	clientConn, serverConn := transport.Pipe(8, nil)
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- r.Handle(serverConn)
	}()
	return &fclient{t: t, r: r, conn: clientConn, done: done, frames: frames}
}

func (p *fclient) recv(want transport.MsgType) transport.Message {
	p.t.Helper()
	m, err := p.conn.Recv()
	if err != nil {
		p.t.Fatalf("recv %v: %v", want, err)
	}
	if m.Type != want {
		p.t.Fatalf("recv %v, want %v", m.Type, want)
	}
	return m
}

func (p *fclient) hello(requestID uint64) {
	p.t.Helper()
	p.sendHello(requestID)
	p.helloAck()
}

func (p *fclient) sendHello(requestID uint64) {
	p.t.Helper()
	h := transport.Hello{Version: transport.Version, NumClass: uint16(video.NumClasses), SessionID: requestID}
	if err := p.conn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(h)}); err != nil {
		p.t.Fatal(err)
	}
}

func (p *fclient) helloAck() {
	p.t.Helper()
	m := p.recv(transport.MsgHello)
	ack, err := transport.DecodeHello(m.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	p.sessionID, p.epoch = ack.SessionID, ack.Epoch
	p.recv(transport.MsgStudentFull)
}

// helloShed sends a Hello and expects the router's retryable shed.
func (p *fclient) helloShed(requestID uint64) transport.ResumeAck {
	p.t.Helper()
	p.sendHello(requestID)
	m := p.recv(transport.MsgResumeAck)
	ack, err := transport.DecodeResumeAck(m.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	return ack
}

func (p *fclient) keyFrame() transport.StudentDiff {
	p.t.Helper()
	p.kfSeq++
	frame := p.frames[int(p.kfSeq-1)%len(p.frames)]
	kf := transport.KeyFrame{FrameIndex: uint32(frame.Index), Image: frame.Image, Label: frame.Label, Seq: p.kfSeq}
	if err := p.conn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)}); err != nil {
		p.t.Fatal(err)
	}
	m := p.recv(transport.MsgStudentDiff)
	d, err := transport.DecodeStudentDiff(m.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	return d
}

// drop severs the connection and waits until some shard has the session
// parked.
func (p *fclient) drop() {
	p.t.Helper()
	p.conn.Close()
	if err := <-p.done; err != nil {
		p.t.Fatalf("dropped session should detach, not error: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sh := p.r.owner(p.sessionID); sh != nil && sh.SessionState(p.sessionID) == serve.SessionParked {
			return
		}
		if time.Now().After(deadline) {
			p.t.Fatal("session never parked")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *fclient) resume(lastSeq uint64) transport.ResumeAck {
	p.t.Helper()
	np := fconnect(p.t, p.r, p.frames)
	p.conn, p.done = np.conn, np.done
	req := transport.Resume{SessionID: p.sessionID, Epoch: p.epoch, LastDiffSeq: lastSeq}
	if err := p.conn.Send(transport.Message{Type: transport.MsgResume, Body: transport.EncodeResume(req)}); err != nil {
		p.t.Fatal(err)
	}
	m := p.recv(transport.MsgResumeAck)
	ack, err := transport.DecodeResumeAck(m.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	if ack.Status == transport.ResumeReplay || ack.Status == transport.ResumeFull {
		p.epoch = ack.Epoch
	}
	return ack
}

func (p *fclient) shutdown() {
	p.t.Helper()
	p.conn.Send(transport.Message{Type: transport.MsgShutdown})
	if err := <-p.done; err != nil {
		p.t.Fatalf("clean shutdown errored: %v", err)
	}
	p.conn.Close()
}

// Rendezvous placement is stable (satellite): removing a shard re-homes
// exactly the sessions it owned, adding one moves only sessions onto the
// newcomer, and the population spreads roughly evenly.
func TestPlacementStability(t *testing.T) {
	const n = 4
	const ids = 4000
	full := []int{0, 1, 2, 3}
	counts := make([]int, n)
	for id := uint64(1); id <= ids; id++ {
		home := full[Place(id, full)]
		counts[home]++
		if got := ShardFor(id, n); got != home {
			t.Fatalf("ShardFor(%d) = %d, Place = %d", id, got, home)
		}
	}
	fair := ids / n
	for s, c := range counts {
		if c < fair/2 || c > 2*fair {
			t.Errorf("shard %d owns %d of %d sessions (fair share %d): badly skewed", s, c, ids, fair)
		}
	}

	// Remove shard 2: its sessions re-home, every other placement is fixed.
	sub := []int{0, 1, 3}
	moved := 0
	for id := uint64(1); id <= ids; id++ {
		before := full[Place(id, full)]
		after := sub[Place(id, sub)]
		if before == 2 {
			moved++
			if after == 2 {
				t.Fatalf("session %d still placed on removed shard", id)
			}
		} else if after != before {
			t.Fatalf("session %d moved %d -> %d though its shard never left", id, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no sessions were homed on the removed shard")
	}

	// Add shard 4: sessions either stay or move onto the newcomer only.
	grown := []int{0, 1, 2, 3, 4}
	joined := 0
	for id := uint64(1); id <= ids; id++ {
		before := full[Place(id, full)]
		after := grown[Place(id, grown)]
		if after == 4 {
			joined++
		} else if after != before {
			t.Fatalf("session %d moved %d -> %d when shard 4 joined", id, before, after)
		}
	}
	if joined == 0 {
		t.Fatal("new shard attracted no sessions")
	}
}

// The router assigns globally unique IDs: zero requests get fresh IDs, and
// a requested ID already occupied anywhere in the fabric is replaced, never
// duplicated.
func TestRouterIDAssignment(t *testing.T) {
	r := testRouter(t, 2, 4)
	frames := testFrames(t, 8)

	a := fconnect(t, r, frames)
	a.hello(0)
	b := fconnect(t, r, frames)
	b.hello(0)
	if a.sessionID == 0 || b.sessionID == 0 || a.sessionID == b.sessionID {
		t.Fatalf("assigned ids %d and %d, want distinct nonzero", a.sessionID, b.sessionID)
	}
	c := fconnect(t, r, frames)
	c.hello(a.sessionID) // occupied: must be reassigned
	if c.sessionID == a.sessionID || c.sessionID == 0 {
		t.Fatalf("duplicate requested id %d honoured (got %d)", a.sessionID, c.sessionID)
	}
	a.shutdown()
	b.shutdown()
	c.shutdown()

	// Concurrent Hellos requesting the same free ID: the router is the only
	// mint, and its claim gives the ID to one of them and a fresh one to the
	// other.
	free := max(a.sessionID, b.sessionID, c.sessionID) + 100
	d := fconnect(t, r, frames)
	e := fconnect(t, r, frames)
	d.sendHello(free)
	e.sendHello(free)
	d.helloAck()
	e.helloAck()
	if d.sessionID == e.sessionID || d.sessionID == 0 || e.sessionID == 0 {
		t.Fatalf("concurrent hellos for free id %d got %d and %d, want distinct nonzero", free, d.sessionID, e.sessionID)
	}
	if d.sessionID != free && e.sessionID != free {
		t.Fatalf("free id %d given to neither hello (%d, %d)", free, d.sessionID, e.sessionID)
	}
	d.shutdown()
	e.shutdown()
}

// A session parked on a drained shard is pulled across by the next resume:
// the lazy handoff path. The journal moves with the session, so recovery is
// a replay, never a full resend, and the session keeps streaming on its new
// shard with sequence continuity.
func TestCrossShardHandoffOnResume(t *testing.T) {
	r := testRouter(t, 2, 4)
	frames := testFrames(t, 8)

	id := idOnShard(0, 0, 2)
	p := fconnect(t, r, frames)
	p.hello(id)
	if p.sessionID != id {
		t.Fatalf("requested id %d, got %d", id, p.sessionID)
	}
	p.keyFrame()

	// Drain the session's home while it is attached: nothing migrates, the
	// live connection keeps working.
	migrated, err := r.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if migrated != 0 {
		t.Fatalf("drain migrated %d active sessions", migrated)
	}
	p.keyFrame()
	p.keyFrame()

	// Now it drops and parks on the drained shard; the resume hashes to
	// the survivor, which must pull the session across.
	p.drop()
	ack := p.resume(1) // applied only diff 1: expect replay of 2 and 3
	if ack.Status != transport.ResumeReplay {
		t.Fatalf("resume status %v, want replay", ack.Status)
	}
	if ack.NumDiffs != 2 {
		t.Fatalf("replayed %d diffs, want 2", ack.NumDiffs)
	}
	for i := 0; i < int(ack.NumDiffs); i++ {
		p.recv(transport.MsgStudentDiff)
	}
	if d := p.keyFrame(); d.Seq != 4 {
		t.Fatalf("post-handoff diff seq %d, want 4", d.Seq)
	}
	p.shutdown()

	st := r.Stats()
	if st.Handoffs != 1 {
		t.Errorf("handoffs = %d, want 1", st.Handoffs)
	}
	if st.Shards[1].SessionsServed != 1 || st.Shards[0].SessionsServed != 0 {
		t.Errorf("session served on wrong shard: %+v", st.Shards)
	}
	if st.Agg.SessionsServed != 1 || st.Agg.ResumeReplays != 1 || st.Agg.ResumeFulls != 0 {
		t.Errorf("aggregate fold wrong: %+v", st.Agg)
	}
	if st.Agg.Evicted != 0 {
		t.Errorf("handoff must not evict: %+v", st.Agg)
	}
}

// Draining a shard migrates its parked sessions to their new rendezvous
// homes eagerly — they survive with journals intact instead of being
// evicted, and the resume needs no further handoff.
func TestDrainMigratesParked(t *testing.T) {
	r := testRouter(t, 2, 4)
	frames := testFrames(t, 8)

	id := idOnShard(0, 0, 2)
	p := fconnect(t, r, frames)
	p.hello(id)
	p.keyFrame()
	p.keyFrame()
	p.drop()

	migrated, err := r.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if migrated != 1 {
		t.Fatalf("drain migrated %d sessions, want 1", migrated)
	}
	if got := r.shards[1].SessionState(id); got != serve.SessionParked {
		t.Fatalf("session not parked on survivor (state %v)", got)
	}

	ack := p.resume(2) // fully current: empty replay
	if ack.Status != transport.ResumeReplay || ack.NumDiffs != 0 {
		t.Fatalf("resume after migration: %v/%d, want empty replay", ack.Status, ack.NumDiffs)
	}
	if d := p.keyFrame(); d.Seq != 3 {
		t.Fatalf("post-migration diff seq %d, want 3", d.Seq)
	}
	p.shutdown()

	st := r.Stats()
	if st.Migrated != 1 || st.Handoffs != 0 {
		t.Errorf("migrated=%d handoffs=%d, want 1/0", st.Migrated, st.Handoffs)
	}
	if st.Agg.Evicted != 0 {
		t.Errorf("drain must migrate, not evict: %+v", st.Agg)
	}
	if _, err := r.Drain(1); err == nil {
		t.Error("draining the last shard must fail")
	}
}

// The router sheds fresh sessions above the per-shard watermark with the
// retryable reject, and a core.Client with a Dial callback rides it out:
// back off, redial, get admitted once capacity frees.
func TestAdmissionShedAndClientRetry(t *testing.T) {
	r := testRouter(t, 2, 1) // watermark: 1 session per shard
	frames := testFrames(t, 8)

	// Two IDs homed on the same shard: the second Hello must shed.
	idA := idOnShard(0, 0, 2)
	idB := idOnShard(0, 1, 2)
	a := fconnect(t, r, frames)
	a.hello(idA)
	a.keyFrame()

	b := fconnect(t, r, frames)
	ack := b.helloShed(idB)
	if ack.Status != transport.ResumeRetry {
		t.Fatalf("shed status %v, want retry", ack.Status)
	}
	if st := r.Stats(); st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", st.Sheds)
	}

	// A real client with Dial installed retries through the shed until the
	// hot shard frees up.
	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 99))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1
	cl := &core.Client{
		Cfg:               cfg,
		Student:           tinyBase(41).Clone(),
		SessionID:         idB,
		ResumeBackoff:     20 * time.Millisecond,
		MaxResumeAttempts: 50,
		Dial: func() (transport.Conn, error) {
			clientConn, serverConn := transport.Pipe(8, nil)
			go func() {
				defer serverConn.Close()
				r.Handle(serverConn)
			}()
			return clientConn, nil
		},
	}
	clientDone := make(chan error, 1)
	go func() {
		conn, _ := cl.Dial()
		clientDone <- cl.Run(conn, gen, 6)
	}()

	time.Sleep(150 * time.Millisecond) // let it collide with the watermark
	a.shutdown()                       // free the slot
	select {
	case err := <-clientDone:
		if err != nil {
			t.Fatalf("client never admitted: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("client stuck in admission retry")
	}
	// The client returns on its own Shutdown send; the shard folds the
	// session's stats when its handler observes it — poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Agg.SessionsServed != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions served = %d, want 2", r.Stats().Agg.SessionsServed)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterOverTCP exercises the accept loop end to end on loopback: three
// clients are routed and served, and Close ends ServeListener cleanly.
func TestRouterOverTCP(t *testing.T) {
	r := testRouter(t, 2, 8)
	ln, err := transport.Listen("127.0.0.1:0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- r.ServeListener(ln) }()

	const clients = 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := transport.Dial(ln.Addr(), 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			gen, err := video.NewGenerator(video.CategoryConfig(
				video.Category{Camera: video.Fixed, Scenery: video.People}, int64(71+c)))
			if err != nil {
				t.Error(err)
				return
			}
			cl := &core.Client{Cfg: core.DefaultConfig(), Student: tinyBase(int64(81 + c))}
			if err := cl.Run(conn, gen, 16); err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	if st := r.Stats(); st.Agg.SessionsServed != clients {
		t.Fatalf("served %d, want %d", st.Agg.SessionsServed, clients)
	}
}
