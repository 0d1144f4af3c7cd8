package core

import (
	"fmt"
	"runtime"
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

// The background receiver must exit deterministically on session teardown
// — clean sessions and error sessions alike (the pre-fix code could leave
// it parked in Recv until the peer happened to close).
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
	// Run fails while the receiver machinery is live.
	for i := 0; i < 3; i++ {
		clientConn, serverConn := transport.Pipe(4, nil)
		go func() {
			if _, err := serverConn.Recv(); err != nil {
				return
			}
			body, err := (*CheckpointCodec)(nil).EncodeFor(0, tinyStudent(92).Params.All())
			if err != nil {
				return
			}
			serverConn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(transport.Hello{Version: transport.Version})})
			serverConn.Send(transport.Message{Type: transport.MsgStudentFull, Body: body})
			serverConn.Recv() // first key frame
			serverConn.Close()
		}()
		cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(92)}
		if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err == nil {
			t.Fatal("client should fail when the server vanishes")
		}
		clientConn.Close()
	}
	waitGoroutines(t, baselineCount+1)
}

// A receiver parked in Recv with a pending handle (the peer is alive but
// silent) must still shut down promptly when forced — the close-driven
// teardown the session relies on.
func TestReceiverStopUnblocksParkedRecv(t *testing.T) {
	clientConn, serverConn := transport.Pipe(2, nil)
	defer serverConn.Close()
	cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(93)}
	r := cl.startReceiver(clientConn)
	h := asyncRecv{ch: make(chan transport.StudentDiff, 1), err: make(chan error, 1)}
	r.reqs <- h // receiver now blocks in Recv; the peer never sends

	done := make(chan struct{})
	go func() {
		r.stop(true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("forced stop did not unblock the parked receiver")
	}
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
// burying the decode error under "gave up after N reconnect attempts"
// would point debugging at the network.
func TestClientPoisonDiffFailsFastDespiteDial(t *testing.T) {
	frames := collect(t, 97, 30)
	clientConn, serverConn := transport.Pipe(4, nil)
	go func() {
		defer serverConn.Close()
		if _, err := serverConn.Recv(); err != nil {
			return
		}
		body, err := (*CheckpointCodec)(nil).EncodeFor(0, tinyStudent(97).Params.All())
		if err != nil {
			return
		}
		serverConn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(transport.Hello{Version: transport.Version})})
		serverConn.Send(transport.Message{Type: transport.MsgStudentFull, Body: body})
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
	clientConn.Close()
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
