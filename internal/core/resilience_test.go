package core

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// waitGoroutines polls until the process goroutine count drops back to at
// most want, failing after a generous deadline — tolerant of runtime
// background goroutines, strict about leaks.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scriptedHello plays a server's side of the handshake on conn: it takes
// the Hello and answers with an ack and a checkpoint of tinyStudent(seed).
func scriptedHello(conn transport.Conn, seed int64) error {
	if _, err := conn.Recv(); err != nil {
		return err
	}
	body, err := (*CheckpointCodec)(nil).EncodeFor(0, tinyStudent(seed).Params.All())
	if err != nil {
		return err
	}
	if err := conn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(transport.Hello{Version: transport.Version})}); err != nil {
		return err
	}
	return conn.Send(transport.Message{Type: transport.MsgStudentFull, Body: body})
}

// hookedSource replays frames and calls hook with each frame's index before
// handing it out.
type hookedSource struct {
	frames []video.Frame
	i      int
	hook   func(i int)
}

func (s *hookedSource) Next() video.Frame {
	s.hook(s.i)
	s.i++
	return s.frames[s.i-1]
}

// The link goroutine must exit deterministically on session teardown —
// clean sessions and error sessions alike — not stay parked in Recv until
// the peer happens to close.
func TestClientLeavesNoGoroutines(t *testing.T) {
	frames := collect(t, 91, 24)
	cfg := DefaultConfig()
	cfg.MaxUpdates = 1 // keep the distillation cost out of a plumbing test
	baselineCount := runtime.NumGoroutine()

	// Clean sessions.
	for i := 0; i < 2; i++ {
		runSession(t, cfg, frames)
	}
	waitGoroutines(t, baselineCount+1)

	// Error sessions: the server vanishes right after the handshake, so
	// Run fails while the link is live.
	for i := 0; i < 3; i++ {
		clientConn, serverConn := transport.Pipe(4, nil)
		go func() {
			if scriptedHello(serverConn, 92) != nil {
				return
			}
			serverConn.Recv() // first key frame
			serverConn.Close()
		}()
		cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(92)}
		if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err == nil {
			t.Fatal("client should fail when the server vanishes")
		}
	}
	waitGoroutines(t, baselineCount+1)
}

// A link parked in Recv (the peer is alive but silent) must still shut
// down promptly on stop — the close-driven teardown Run relies on.
func TestLinkStopUnblocksParkedRecv(t *testing.T) {
	clientConn, serverConn := transport.Pipe(2, nil)
	defer serverConn.Close()
	go scriptedHello(serverConn, 93)
	cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(93)}
	l := cl.connect(clientConn)
	if ev := <-l.events; ev.up == nil {
		t.Fatalf("admission reported %+v, want the session", ev)
	}
	// The link now blocks in Recv; the peer never sends.
	done := make(chan struct{})
	go func() {
		l.stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not unblock the parked link")
	}
}

// An outage after the last frame is abandoned: Run returns without sitting
// out the redial backoff, and leaves no goroutine behind.
func TestClientOutageAtEndLeavesNoGoroutines(t *testing.T) {
	frames := collect(t, 89, 4) // under MIN_STRIDE: one key frame, its update awaited at teardown
	baselineCount := runtime.NumGoroutine()
	clientConn, serverConn := transport.Pipe(4, nil)
	last := make(chan struct{})
	go func() {
		defer serverConn.Close()
		if scriptedHello(serverConn, 89) != nil {
			return
		}
		serverConn.Recv() // the key frame, never answered
		<-last
	}()
	var dials atomic.Int32
	cl := &Client{
		Cfg:           DefaultConfig(),
		Student:       tinyStudent(89),
		ResumeBackoff: time.Second,
		Dial: func() (transport.Conn, error) {
			dials.Add(1)
			return nil, fmt.Errorf("unreachable")
		},
	}
	src := &hookedSource{frames: frames, hook: func(i int) {
		if i == len(frames)-1 {
			close(last) // the server drops the link as the last frame is drawn
		}
	}}
	began := time.Now()
	if err := cl.Run(clientConn, src, len(frames)); err != nil {
		t.Fatalf("an outage after the last frame must be abandoned, got %v", err)
	}
	if took := time.Since(began); took > 500*time.Millisecond {
		t.Fatalf("Run took %v: it sat out the 1s redial backoff", took)
	}
	if dials.Load() != 0 {
		t.Fatalf("dialled %d times after the last frame", dials.Load())
	}
	waitGoroutines(t, baselineCount)
}

// dropAfterDiff is a server conn that drops the link just after sending its
// first student diff: every later Send and Recv fails as on a dead conn.
type dropAfterDiff struct {
	transport.Conn
	dropped bool
}

func (d *dropAfterDiff) Send(m transport.Message) error {
	if d.dropped {
		return io.ErrClosedPipe
	}
	err := d.Conn.Send(m)
	if m.Type == transport.MsgStudentDiff {
		d.dropped = true
		d.Conn.Close()
	}
	return err
}

func (d *dropAfterDiff) Recv() (transport.Message, error) {
	if d.dropped {
		return transport.Message{}, io.EOF
	}
	return d.Conn.Recv()
}

// The Resume names the last diff the link delivered, which Run applied
// before it took the recovery: diff 1 arrives and the conn drops, so the
// redialled server is asked for everything after 1 and replays nothing —
// and the diffs it sends next are relative to what the client holds.
func TestClientResumePointIsLastDeliveredDiff(t *testing.T) {
	frames := collect(t, 98, 64)
	cfg := DefaultConfig()
	cfg.MaxUpdates = 1
	cfg.MaxStride = cfg.MinStride // key frames at 0, 8, 16, …
	srv := NewServer(cfg, tinyStudent(98), teacher.NewOracle(98))
	clientConn, serverConn := transport.Pipe(4, nil)
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		defer serverConn.Close()
		if _, err := srv.Handshake(serverConn); err != nil {
			return
		}
		srv.Loop(&dropAfterDiff{Conn: serverConn})
	}()
	resumes := make(chan transport.Resume, 1)
	acked := make(chan struct{})
	head := make(chan uint64, 1) // the server's last diff Seq once the session ends
	var dials atomic.Int32
	dial := func() (transport.Conn, error) {
		if dials.Add(1) > 1 {
			return nil, fmt.Errorf("one redial expected")
		}
		c, s := transport.Pipe(4, nil)
		go func() {
			defer s.Close()
			<-firstDone // the first conn's Loop is done with srv
			m, err := s.Recv()
			if err != nil || m.Type != transport.MsgResume {
				return
			}
			req, err := transport.DecodeResume(m.Body)
			if err != nil {
				return
			}
			resumes <- req
			body, err := transport.EncodeResumeAck(transport.ResumeAck{Status: transport.ResumeReplay, Epoch: req.Epoch + 1, HeadSeq: srv.DiffSeq})
			if err != nil || s.Send(transport.Message{Type: transport.MsgResumeAck, Body: body}) != nil {
				return
			}
			close(acked)
			srv.Loop(s)
			head <- srv.DiffSeq
		}()
		return c, nil
	}
	cl := &Client{Cfg: cfg, Student: tinyStudent(99), SessionID: 7, Dial: dial, ResumeBackoff: 5 * time.Millisecond}
	// By frame 16 the drop has been seen: the update of the key frame at 8
	// is awaited at 15 if that frame went out at all. Hold the stream there
	// until the recovery is on the wire, so the session resumes mid-run.
	src := &hookedSource{frames: frames, hook: func(i int) {
		if i == 16 {
			select {
			case <-acked:
			case <-time.After(10 * time.Second):
			}
		}
	}}
	if err := cl.Run(clientConn, src, len(frames)); err != nil {
		t.Fatalf("client run: %v", err)
	}
	select {
	case req := <-resumes:
		if req.SessionID != 7 || req.LastDiffSeq != 1 {
			t.Fatalf("resumed session %d after diff %d, want session 7 after diff 1", req.SessionID, req.LastDiffSeq)
		}
	default:
		t.Fatal("the client never resumed")
	}
	r := cl.Result
	if r.Reconnects != 1 || r.ResumeReplays != 1 || r.FullResends != 0 {
		t.Fatalf("reconnects %d, replays %d, full resends %d; want 1, 1, 0", r.Reconnects, r.ResumeReplays, r.FullResends)
	}
	select {
	case seq := <-head:
		if seq < 2 {
			t.Fatalf("no diff after the resume (server head %d)", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the resumed session never ended")
	}
}

// Run closes the conn it was handed, on the clean path and on the error
// path alike.
func TestClientRunClosesItsConn(t *testing.T) {
	frames := collect(t, 88, 12)
	cfg := DefaultConfig()
	cfg.MaxUpdates = 1
	for _, clean := range []bool{true, false} {
		clientConn, serverConn := transport.Pipe(4, nil)
		if clean {
			go NewServer(cfg, tinyStudent(88), teacher.NewOracle(88)).Serve(serverConn)
		} else {
			serverConn.Close() // gone before the handshake
		}
		conn := &closeSpy{Conn: clientConn}
		err := (&Client{Cfg: cfg, Student: tinyStudent(88)}).Run(conn, video.NewReplay(frames), len(frames))
		if (err == nil) != clean {
			t.Fatalf("clean=%v: Run returned %v", clean, err)
		}
		if !conn.closed.Load() {
			t.Fatalf("clean=%v: Run left its conn open", clean)
		}
	}
}

type closeSpy struct {
	transport.Conn
	closed atomic.Bool
}

func (c *closeSpy) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// Duplicate diff deliveries (a journal replay overlapping what the client
// already applied) must be skipped by sequence, not re-applied — the
// stride trace would otherwise double-count.
func TestClientApplySkipsDuplicateSeq(t *testing.T) {
	cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(94)}
	rs := &runState{lastApplied: 5, cad: newCadence(cl.Cfg, nil)}
	rs.cad.sent()
	d := transport.StudentDiff{Seq: 5, Metric: 0.9, Params: nil}
	if err := cl.apply(rs, d); err != nil {
		t.Fatal(err)
	}
	if rs.cad.pending {
		t.Fatal("duplicate must still mark the update complete")
	}
	if rs.cad.stride != 8.0 || len(rs.cad.trace) != 0 {
		t.Fatal("duplicate must not advance the stride")
	}
	d.Seq = 6
	if err := cl.apply(rs, d); err != nil {
		t.Fatal(err)
	}
	if rs.lastApplied != 6 || len(rs.cad.trace) != 1 {
		t.Fatalf("fresh seq must apply: lastApplied=%d strides=%d", rs.lastApplied, len(rs.cad.trace))
	}
}

// A poison diff (decode failure on a healthy link) must fail fast even
// with reconnection enabled: redialling cannot fix a protocol bug, and
// burying the decode error under "gave up after N redials" would point
// debugging at the network.
func TestClientPoisonDiffFailsFastDespiteDial(t *testing.T) {
	frames := collect(t, 97, 30)
	clientConn, serverConn := transport.Pipe(4, nil)
	go func() {
		defer serverConn.Close()
		if scriptedHello(serverConn, 97) != nil {
			return
		}
		serverConn.Recv() // first key frame
		serverConn.Send(transport.Message{Type: transport.MsgStudentDiff, Body: []byte{9, 9, 9}})
	}()
	dials := 0
	cl := &Client{
		Cfg:     DefaultConfig(),
		Student: tinyStudent(97),
		Dial: func() (transport.Conn, error) {
			dials++
			return nil, fmt.Errorf("should not be dialled")
		},
	}
	err := cl.Run(clientConn, video.NewReplay(frames), len(frames))
	if err == nil {
		t.Fatal("corrupt diff must fail the session")
	}
	if isLinkError(err) {
		t.Fatalf("decode failure misclassified as link error: %v", err)
	}
	if dials != 0 || cl.Result.Reconnects != 0 {
		t.Fatalf("poison diff must not trigger reconnects (dials=%d, reconnects=%d)", dials, cl.Result.Reconnects)
	}
}

// Without a Dial callback the legacy contract holds: any connection error
// ends Run with that error (covered more broadly in failure_test.go; this
// pins the send path specifically).
func TestClientWithoutDialFailsFast(t *testing.T) {
	frames := collect(t, 95, 30)
	clientConn, serverConn := transport.Pipe(4, nil)
	srv := NewServer(DefaultConfig(), tinyStudent(95), teacher.NewOracle(95))
	go srv.Handshake(serverConn)

	cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(96)}
	// Close the link as soon as the handshake completes; the next key
	// frame send must surface the failure.
	go func() {
		time.Sleep(50 * time.Millisecond)
		serverConn.Close()
	}()
	if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err == nil {
		t.Fatal("dropped connection without Dial must fail the session")
	}
	if cl.Result.Reconnects != 0 {
		t.Fatal("no reconnects without a Dial callback")
	}
}
