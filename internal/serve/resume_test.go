package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// protoClient drives the wire protocol by hand, giving resume tests exact
// control over sequence numbers and drop points.
type protoClient struct {
	t    *testing.T
	conn *transport.PipeConn
	done chan error // Handle's return for this connection

	sessionID uint64
	epoch     uint64
	frames    []video.Frame
	kfSeq     uint64
}

// connect opens a new pipe connection into the manager.
func connect(t *testing.T, m *Manager) *protoClient {
	t.Helper()
	clientConn, serverConn := transport.Pipe(8, nil)
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- m.Handle(serverConn)
	}()
	return &protoClient{t: t, conn: clientConn, done: done}
}

// hello performs the fresh handshake and swallows the checkpoint.
func (p *protoClient) hello(requestID uint64) {
	p.t.Helper()
	h := transport.Hello{Version: transport.Version, NumClass: uint16(video.NumClasses), SessionID: requestID}
	if err := p.conn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(h)}); err != nil {
		p.t.Fatal(err)
	}
	m := p.recv(transport.MsgHello)
	ack, err := transport.DecodeHello(m.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	p.sessionID, p.epoch = ack.SessionID, ack.Epoch
	p.recv(transport.MsgStudentFull)
}

func (p *protoClient) recv(want transport.MsgType) transport.Message {
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

// send ships the next key frame without waiting for its diff.
func (p *protoClient) send() {
	p.t.Helper()
	p.kfSeq++
	frame := p.frames[int(p.kfSeq-1)%len(p.frames)]
	kf := transport.KeyFrame{FrameIndex: uint32(frame.Index), Image: frame.Image, Label: frame.Label, Seq: p.kfSeq}
	if err := p.conn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)}); err != nil {
		p.t.Fatal(err)
	}
}

// keyFrame ships the next key frame and returns the decoded diff.
func (p *protoClient) keyFrame() transport.StudentDiff {
	p.t.Helper()
	p.send()
	m := p.recv(transport.MsgStudentDiff)
	d, err := transport.DecodeStudentDiff(m.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	return d
}

// drop severs the connection and waits for the manager to park the
// session.
func (p *protoClient) drop(m *Manager) {
	p.t.Helper()
	p.conn.Close()
	if err := <-p.done; err != nil {
		p.t.Fatalf("dropped session should detach, not error: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Detached == 0 {
		if time.Now().After(deadline) {
			p.t.Fatal("session never detached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// resume reconnects with a Resume handshake and returns the ack; the
// protoClient keeps the old identity so callers can tamper with it.
func (p *protoClient) resume(m *Manager, lastSeq uint64) transport.ResumeAck {
	p.t.Helper()
	np := connect(p.t, m)
	p.conn, p.done = np.conn, np.done
	req := transport.Resume{SessionID: p.sessionID, Epoch: p.epoch, LastDiffSeq: lastSeq}
	if err := p.conn.Send(transport.Message{Type: transport.MsgResume, Body: transport.EncodeResume(req)}); err != nil {
		p.t.Fatal(err)
	}
	msg := p.recv(transport.MsgResumeAck)
	ack, err := transport.DecodeResumeAck(msg.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	if ack.Status == transport.ResumeReplay || ack.Status == transport.ResumeFull {
		p.epoch = ack.Epoch
	}
	return ack
}

func (p *protoClient) shutdown() {
	p.t.Helper()
	p.conn.Send(transport.Message{Type: transport.MsgShutdown})
	if err := <-p.done; err != nil {
		p.t.Fatalf("clean shutdown errored: %v", err)
	}
	p.conn.Close()
}

func resumeManager(t *testing.T, journalDepth int) (*Manager, []video.Frame) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1 // resume tests exercise plumbing, not distillation
	m, err := NewManager(Options{
		Cfg:          cfg,
		Base:         tinyStudent(41),
		Teacher:      teacher.NewOracle(7),
		MaxSessions:  4,
		JournalDepth: journalDepth,
		Logf:         t.Logf,
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

// A client that is already current resumes with an empty replay and the
// session continues — sequence numbers and epoch advance across the gap.
func TestResumeReplayAtHead(t *testing.T) {
	m, frames := resumeManager(t, 8)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	d1 := p.keyFrame()
	if d1.Seq != 1 {
		t.Fatalf("first diff seq %d, want 1", d1.Seq)
	}
	p.drop(m)

	ack := p.resume(m, d1.Seq)
	if ack.Status != transport.ResumeReplay || ack.NumDiffs != 0 {
		t.Fatalf("ack %+v, want empty replay", ack)
	}
	if ack.Epoch != 2 || ack.HeadSeq != 1 {
		t.Fatalf("ack %+v, want epoch 2 head 1", ack)
	}
	d2 := p.keyFrame()
	if d2.Seq != 2 {
		t.Fatalf("post-resume diff seq %d, want 2", d2.Seq)
	}
	p.shutdown()
	st := m.Stats()
	if st.ResumeReplays != 1 || st.ResumeFulls != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.SessionsServed != 1 {
		t.Fatalf("resumed session must count once, got %d", st.SessionsServed)
	}
}

// A client that missed diffs gets exactly the journal suffix, in order.
func TestResumeReplaySuffix(t *testing.T) {
	m, frames := resumeManager(t, 8)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	for i := 0; i < 3; i++ {
		p.keyFrame() // seqs 1..3 journaled
	}
	p.drop(m)

	ack := p.resume(m, 1)
	if ack.Status != transport.ResumeReplay || ack.NumDiffs != 2 {
		t.Fatalf("ack %+v, want replay of 2", ack)
	}
	for want := uint64(2); want <= 3; want++ {
		msg := p.recv(transport.MsgStudentDiff)
		d, err := transport.DecodeStudentDiff(msg.Body)
		if err != nil {
			t.Fatal(err)
		}
		if d.Seq != want {
			t.Fatalf("replayed seq %d, want %d", d.Seq, want)
		}
	}
	p.keyFrame()
	p.shutdown()
}

// The boundary client (applied exactly tail-1) replays the whole retained
// ring.
func TestResumeReplayAtTailBoundary(t *testing.T) {
	m, frames := resumeManager(t, 2)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	for i := 0; i < 4; i++ {
		p.keyFrame() // journal retains seqs 3,4
	}
	p.drop(m)

	ack := p.resume(m, 2)
	if ack.Status != transport.ResumeReplay || ack.NumDiffs != 2 {
		t.Fatalf("ack %+v, want replay of 2 (the full ring)", ack)
	}
	p.recv(transport.MsgStudentDiff)
	p.recv(transport.MsgStudentDiff)
	p.shutdown()
}

// Past the eviction horizon the server falls back to a full checkpoint.
func TestResumeFullFallbackPastHorizon(t *testing.T) {
	m, frames := resumeManager(t, 2)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	for i := 0; i < 4; i++ {
		p.keyFrame() // journal retains 3,4; seqs 1,2 evicted
	}
	p.drop(m)

	ack := p.resume(m, 1)
	if ack.Status != transport.ResumeFull {
		t.Fatalf("ack %+v, want full fallback", ack)
	}
	if ack.HeadSeq != 4 {
		t.Fatalf("head %d, want 4", ack.HeadSeq)
	}
	p.recv(transport.MsgStudentFull)
	d := p.keyFrame()
	if d.Seq != 5 {
		t.Fatalf("post-fallback diff seq %d, want 5", d.Seq)
	}
	p.shutdown()
	if st := m.Stats(); st.ResumeFulls != 1 {
		t.Fatalf("stats %+v, want 1 full resume", st)
	}
}

// A duplicate Resume for a session that is still attached is rejected with
// a retryable error message — never a panic, and the live session is
// untouched.
func TestResumeDuplicateForLiveSession(t *testing.T) {
	m, frames := resumeManager(t, 8)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	p.keyFrame()

	// Second connection claims the live session.
	dup := connect(t, m)
	req := transport.Resume{SessionID: p.sessionID, Epoch: p.epoch, LastDiffSeq: 0}
	if err := dup.conn.Send(transport.Message{Type: transport.MsgResume, Body: transport.EncodeResume(req)}); err != nil {
		t.Fatal(err)
	}
	msg := dup.recv(transport.MsgResumeAck)
	ack, err := transport.DecodeResumeAck(msg.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != transport.ResumeRetry {
		t.Fatalf("ack %+v, want retry", ack)
	}
	if !strings.Contains(ack.Reason, "still attached") {
		t.Fatalf("reason %q should explain the session is live", ack.Reason)
	}
	if err := <-dup.done; err == nil {
		t.Fatal("rejected resume must fail its connection")
	}

	// The live session keeps working.
	p.keyFrame()
	p.shutdown()
}

// Unknown sessions and wrong epochs reject permanently; the parked state
// survives every refused probe, parked from the instant it was — probing
// cannot extend its TTL.
func TestResumeRejections(t *testing.T) {
	m, frames := resumeManager(t, 8)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	p.keyFrame()
	p.drop(m)
	before := peek(t, m, p.sessionID)

	// Unknown session.
	ghost := *p
	ghost.sessionID = 9999
	ack := ghost.resume(m, 0)
	if ack.Status != transport.ResumeReject {
		t.Fatalf("unknown session ack %+v, want reject", ack)
	}
	<-ghost.done

	// Wrong epoch.
	stale := *p
	stale.epoch = 99
	ack = stale.resume(m, 0)
	if ack.Status != transport.ResumeReject {
		t.Fatalf("wrong epoch ack %+v, want reject", ack)
	}
	if !strings.Contains(ack.Reason, "epoch") {
		t.Fatalf("reason %q should mention the epoch", ack.Reason)
	}
	<-stale.done

	// Zero is never a wildcard, nor the epoch before epoch 1.
	zero := *p
	zero.epoch = 0
	if ack = zero.resume(m, 0); ack.Status != transport.ResumeReject {
		t.Fatalf("epoch 0 for an epoch-1 session: ack %+v, want reject", ack)
	}
	<-zero.done

	// A client claiming diffs past the server head is rejected, but the
	// parked session survives for the honest retry.
	ahead := *p
	ack = ahead.resume(m, 99)
	if ack.Status != transport.ResumeReject {
		t.Fatalf("client-ahead ack %+v, want reject", ack)
	}
	<-ahead.done

	if after := peek(t, m, p.sessionID); after.sess != before.sess || after.epoch != 1 || !after.parkedAt.Equal(before.parkedAt) {
		t.Fatalf("refused probes disturbed the parked session: epoch %d parked at %v, was %v",
			after.epoch, after.parkedAt, before.parkedAt)
	}
	ack = p.resume(m, 1)
	if ack.Status != transport.ResumeReplay {
		t.Fatalf("honest resume after rejections: %+v", ack)
	}
	p.keyFrame()
	p.shutdown()
}

// An interrupted resume must not orphan the session: if the epoch-bumping
// ack dies on the wire, the client legitimately still holds the previous
// epoch, and the next attempt with it must succeed.
func TestResumeSurvivesLostAck(t *testing.T) {
	m, frames := resumeManager(t, 8)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	p.keyFrame()
	p.drop(m)

	// First resume succeeds server-side (epoch bumped to 2), but the
	// connection dies before the client acts on it.
	ack := p.resume(m, 1)
	if ack.Status != transport.ResumeReplay {
		t.Fatalf("first resume: %+v", ack)
	}
	p.conn.Close()
	if err := <-p.done; err != nil {
		t.Fatalf("dropped resumed session should detach: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Detached == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never re-detached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The client never saw epoch 2: it retries with epoch 1 and must get
	// the session back.
	p.epoch = 1
	ack = p.resume(m, 1)
	if ack.Status != transport.ResumeReplay {
		t.Fatalf("stale-epoch retry after lost ack: %+v", ack)
	}
	if ack.Epoch != 3 {
		t.Fatalf("epoch %d, want 3 (two re-attachments)", ack.Epoch)
	}
	p.keyFrame()
	p.shutdown()
}

// A malformed Resume body fails only its own connection: concurrent
// sessions keep running and new ones can still start.
func TestMalformedResumeFailsOnlyThatConnection(t *testing.T) {
	m, frames := resumeManager(t, 8)
	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	p.keyFrame()

	for _, body := range [][]byte{nil, {1, 2, 3}, make([]byte, 23), make([]byte, 25)} {
		bad := connect(t, m)
		if err := bad.conn.Send(transport.Message{Type: transport.MsgResume, Body: body}); err != nil {
			t.Fatal(err)
		}
		if err := <-bad.done; err == nil {
			t.Fatal("malformed resume must fail its connection")
		}
		bad.conn.Close()
	}

	// The untouched session still works, and fresh sessions still open.
	p.keyFrame()
	p.shutdown()
	q := connect(t, m)
	q.frames = frames
	q.hello(0)
	q.keyFrame()
	q.shutdown()
}

// Detached sessions expire after ResumeTTL: the state is evicted, its
// stats fold, and a late resume is rejected.
func TestDetachedSessionExpires(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1
	m, err := NewManager(Options{
		Cfg:         cfg,
		Base:        tinyStudent(42),
		Teacher:     teacher.NewOracle(7),
		MaxSessions: 2,
		ResumeTTL:   80 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 53))
	if err != nil {
		t.Fatal(err)
	}
	frames := []video.Frame{gen.Next(), gen.Next()}

	p := connect(t, m)
	p.frames = frames
	p.hello(0)
	p.keyFrame()
	p.drop(m)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := m.Stats()
		if st.Detached == 0 && st.Evicted == 1 {
			if st.SessionsServed != 1 {
				t.Fatalf("evicted session must fold stats: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("detached session never expired: %+v", m.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	ack := p.resume(m, 1)
	if ack.Status != transport.ResumeReject {
		t.Fatalf("resume after expiry: %+v, want reject", ack)
	}
	<-p.done
}

// MaxSessions caps parked sessions too: parking a third on a manager of two
// evicts the one parked first, whose stats fold, and the other two resume.
func TestParkedCapacityEvictsOldest(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1
	m, err := NewManager(Options{Cfg: cfg, Base: tinyStudent(41), Teacher: teacher.NewOracle(7), MaxSessions: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, frames := resumeManager(t, 1)
	var ps []*protoClient
	for i := 0; i < 3; i++ {
		ps = append(ps, trainAndPark(t, m, frames, 1))
	}
	if st := m.Stats(); st.Evicted != 1 || st.SessionsServed != 1 || st.Detached != 2 {
		t.Fatalf("after parking three on a cap of two: %+v", st)
	}
	if m.SessionState(ps[0].sessionID) != SessionNone {
		t.Fatal("the capacity eviction kept the oldest session")
	}
	for _, p := range ps[1:] {
		if ack := p.resume(m, 1); ack.Status != transport.ResumeReplay {
			t.Fatalf("session %d: %+v, want a replay", p.sessionID, ack)
		}
		p.shutdown()
	}
}

// Close evicts every parked session: each completes, so its stats fold, and
// a closed manager takes no session moved to it.
func TestCloseEvictsParked(t *testing.T) {
	m, frames := resumeManager(t, 8)
	trainAndPark(t, m, frames, 1)
	trainAndPark(t, m, frames, 1)
	m.Close()
	if st := m.Stats(); st.Evicted != 2 || st.SessionsServed != 2 || st.Detached != 0 {
		t.Fatalf("after Close: %+v", st)
	}
	src, _ := resumeManager(t, 8)
	p := trainAndPark(t, src, frames, 1)
	if err := src.MoveParked(p.sessionID, m); err == nil {
		t.Fatal("a closed manager accepted a moved session")
	}
	if src.SessionState(p.sessionID) != SessionParked {
		t.Fatal("the refused move lost the session")
	}
}

// A session is parked the instant it stops being attached: from the drop on,
// SessionState (what a router's ID claim reads) and a Resume always find it,
// and never see it nowhere.
func TestSessionNeverUnknownWhileDetaching(t *testing.T) {
	m, frames := resumeManager(t, 8)
	for i := 0; i < 200; i++ {
		p := connect(t, m)
		p.frames = frames
		p.hello(7)
		p.keyFrame()
		p.conn.Close()
		for deadline := time.Now().Add(5 * time.Second); ; {
			st := m.SessionState(7)
			if st == SessionParked {
				break
			}
			if st == SessionNone {
				t.Fatalf("iteration %d: session 7 is neither attached nor parked", i)
			}
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: session 7 never parked", i)
			}
		}
		if ack := p.resume(m, 1); ack.Status != transport.ResumeReplay {
			t.Fatalf("iteration %d: resume %+v, want a replay", i, ack)
		}
		p.shutdown()
	}
}

// End to end with the real client: a mid-session cut transparently
// reconnects through Client.Dial, resumes via the journal, and the run
// finishes with its full frame count.
func TestClientAutoReconnectThroughManager(t *testing.T) {
	m, _ := resumeManager(t, 8)

	var mu sync.Mutex
	var liveConn *transport.PipeConn
	dial := func() (transport.Conn, error) {
		clientConn, serverConn := transport.Pipe(8, nil)
		go func() {
			defer serverConn.Close()
			m.Handle(serverConn)
		}()
		mu.Lock()
		liveConn = clientConn
		mu.Unlock()
		return clientConn, nil
	}

	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 61))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1
	cl := &core.Client{
		Cfg:           cfg,
		Student:       tinyStudent(62),
		Dial:          dial,
		ResumeBackoff: 10 * time.Millisecond,
	}

	// Cut the live connection once the session has distilled two key
	// frames (the shared teacher's call counter is concurrency-safe).
	cutDone := make(chan struct{})
	go func() {
		defer close(cutDone)
		deadline := time.Now().Add(10 * time.Second)
		for m.Stats().Teacher.Calls < 2 {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		mu.Lock()
		liveConn.Close()
		mu.Unlock()
	}()

	const frames = 120
	if err := cl.Run(first, gen, frames); err != nil {
		t.Fatalf("client run: %v", err)
	}
	<-cutDone
	if cl.Result.Frames != frames {
		t.Fatalf("processed %d frames, want %d", cl.Result.Frames, frames)
	}
	if cl.Result.Reconnects != 1 {
		t.Fatalf("reconnects %d, want 1", cl.Result.Reconnects)
	}
	if cl.Result.FullResends != 0 {
		t.Fatalf("full resends %d, want 0 (journal replay)", cl.Result.FullResends)
	}
	if cl.Result.StaleFrames == 0 {
		t.Fatal("frames inferred during the outage must count as stale")
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().SessionsServed != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("session never completed: %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := m.Stats(); st.ResumeReplays+st.ResumeFulls != 1 || st.Detached != 0 {
		t.Fatalf("manager stats %+v", st)
	}
}

// Close with DrainTimeout must force-close a session that is mid-
// distillation behind a stalled client — the in-flight Train completes,
// the send fails on the closed conn, and shutdown finishes (the PR 1
// untested drain path).
func TestManagerDrainForceCloseWithInflightDistillation(t *testing.T) {
	gate := make(chan struct{})
	slow := &gatedTeacher{Teacher: teacher.NewOracle(7), gate: gate, entered: make(chan struct{})}
	cfg := core.DefaultConfig()
	cfg.MaxUpdates = 1
	m, err := NewManager(Options{
		Cfg:          cfg,
		Base:         tinyStudent(43),
		Teacher:      slow,
		MaxSessions:  2,
		DrainTimeout: 100 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 53))
	if err != nil {
		t.Fatal(err)
	}
	frame := gen.Next()

	p := connect(t, m)
	p.frames = []video.Frame{frame}
	p.hello(0)
	// Ship a key frame but never read the diff: the session is now inside
	// Train, blocked on the gated teacher.
	p.kfSeq++
	kf := transport.KeyFrame{FrameIndex: 0, Image: frame.Image, Label: frame.Label, Seq: p.kfSeq}
	if err := p.conn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)}); err != nil {
		t.Fatal(err)
	}
	<-slow.entered // distillation is in flight

	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a session held the drain")
	case <-time.After(30 * time.Millisecond):
	}

	// Let the teacher finish after the drain timeout has force-closed the
	// conn; the session's diff send fails and shutdown completes.
	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an in-flight distillation")
	}
	if err := <-p.done; err == nil {
		// The force-closed session ends either with a conn-lost detach
		// (nil after fold) or an error — both acceptable; what matters is
		// that Handle returned at all.
		t.Log("force-closed session ended cleanly")
	}
}

// gatedTeacher blocks its first Infer until the gate opens, signalling
// entry — a stand-in for a slow accelerator mid-batch.
type gatedTeacher struct {
	teacher.Teacher
	gate    chan struct{}
	once    sync.Once
	entered chan struct{}
}

func (g *gatedTeacher) Infer(f video.Frame) []int32 {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.Teacher.Infer(f)
}
