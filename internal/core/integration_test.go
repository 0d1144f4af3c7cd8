package core

import (
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// collect records n frames so identical streams can feed client and
// evaluation.
func collect(t *testing.T, seed int64, n int) []video.Frame {
	t.Helper()
	g, err := video.NewGenerator(video.CategoryConfig(video.Category{Camera: video.Fixed, Scenery: video.People}, seed))
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]video.Frame, n)
	for i := range frames {
		frames[i] = g.Next()
	}
	return frames
}

// runSession wires a Server and Client over an in-process pipe and runs n
// frames end to end.
func runSession(t *testing.T, cfg Config, frames []video.Frame) (*Client, *Server) {
	t.Helper()
	return runSessionUnder(t, cfg, frames, nil, nil)
}

// runSessionUnder is runSession with the server's link policy (nil = none)
// and session observer set. The client is the same either way.
func runSessionUnder(t *testing.T, cfg Config, frames []video.Frame, policy netsim.LinkPolicy, obs SessionObserver) (*Client, *Server) {
	t.Helper()
	clientConn, serverConn := transport.Pipe(4, nil)
	student := tinyStudent(21)
	srv := NewServer(cfg, student.Clone(), teacher.NewOracle(3))
	srv.Policy, srv.Observer = policy, obs
	var wg sync.WaitGroup
	wg.Add(1)
	var srvErr error
	go func() {
		defer wg.Done()
		srvErr = srv.Serve(serverConn)
	}()

	cl := &Client{Cfg: cfg, Student: tinyStudent(99), EvalTeacher: teacher.NewOracle(3)}
	if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err != nil {
		t.Fatalf("client: %v", err)
	}
	clientConn.Close()
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return cl, srv
}

func TestClientServerPipeSession(t *testing.T) {
	cfg := DefaultConfig()
	frames := collect(t, 31, 120)
	cl, srv := runSession(t, cfg, frames)

	if cl.Result.Frames != 120 {
		t.Fatalf("frames %d", cl.Result.Frames)
	}
	if cl.Result.KeyFrames < 2 {
		t.Fatalf("expected multiple key frames, got %d", cl.Result.KeyFrames)
	}
	if cl.Result.KeyFrames != srv.Distiller.TotalTrains {
		t.Fatalf("client sent %d key frames, server trained %d",
			cl.Result.KeyFrames, srv.Distiller.TotalTrains)
	}
	// The client runs the received checkpoint, so its mIoU must beat an
	// untrained student's by a wide margin.
	if cl.Result.MeanIoU <= 0.05 {
		t.Fatalf("session mIoU %v suspiciously low", cl.Result.MeanIoU)
	}
	if len(cl.Result.StrideTrace) == 0 {
		t.Fatal("stride trace empty")
	}
	for _, s := range cl.Result.StrideTrace {
		if s < float64(cfg.MinStride) || s > float64(cfg.MaxStride) {
			t.Fatalf("stride %v outside clamps", s)
		}
	}
}

func TestClientServerPartialShipsOnlyTrainable(t *testing.T) {
	// Under partial distillation the diff must exclude frozen parameters;
	// verify via the server's trainable subset.
	cfg := DefaultConfig()
	frames := collect(t, 32, 60)
	_, srv := runSession(t, cfg, frames)
	sub := len(srv.Distiller.Student.Params.All())
	trainable := 0
	for _, p := range srv.Distiller.Student.Params.All() {
		if !p.Frozen {
			trainable++
		}
	}
	if trainable == 0 || trainable >= sub {
		t.Fatalf("partial mode: %d trainable of %d params", trainable, sub)
	}
}

func TestClientServerFullDistillation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Partial = false
	frames := collect(t, 33, 60)
	cl, _ := runSession(t, cfg, frames)
	if cl.Result.KeyFrames < 1 {
		t.Fatal("no key frames in full mode")
	}
}

func TestClientServerOverTCP(t *testing.T) {
	cfg := DefaultConfig()
	frames := collect(t, 34, 60)

	ln, err := transport.Listen("127.0.0.1:0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		defer conn.Close()
		srv := NewServer(cfg, tinyStudent(22), teacher.NewOracle(4))
		srvDone <- srv.Serve(conn)
	}()

	conn, err := transport.Dial(ln.Addr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := &Client{Cfg: cfg, Student: tinyStudent(23)}
	if err := cl.Run(conn, video.NewReplay(frames), len(frames)); err != nil {
		t.Fatalf("client over TCP: %v", err)
	}
	if err := <-srvDone; err != nil {
		t.Fatalf("server over TCP: %v", err)
	}
	if cl.Result.KeyFrames < 1 {
		t.Fatal("no key frames over TCP")
	}
}

func TestClientServerSessionAccounting(t *testing.T) {
	// Verify the transport byte accounting captures key frames up and
	// diffs down in realistic proportions.
	var acct netsim.Accountant
	cfg := DefaultConfig()
	frames := collect(t, 36, 60)
	clientConn, serverConn := transport.Pipe(4, &acct)
	srv := NewServer(cfg, tinyStudent(24), teacher.NewOracle(6))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(serverConn) }()
	cl := &Client{Cfg: cfg, Student: tinyStudent(25)}
	if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err != nil {
		t.Fatal(err)
	}
	clientConn.Close()
	<-done
	up, down := acct.Totals()
	if up == 0 || down == 0 {
		t.Fatalf("no traffic recorded: %d/%d", up, down)
	}
}
