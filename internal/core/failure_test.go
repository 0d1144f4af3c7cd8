package core

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/teacher"
	"repro/internal/transport"
)

// A server that vanishes before the handshake must surface a clean error.
func TestClientServerGoneBeforeHandshake(t *testing.T) {
	clientConn, serverConn := transport.Pipe(1, nil)
	serverConn.Close()
	cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(71)}
	frames := collect(t, 71, 10)
	if err := cl.Run(clientConn, baseline.NewReplay(frames), len(frames)); err == nil {
		t.Fatal("dead server must fail the session")
	}
}

// A server that dies after shipping the initial student: the client must
// error out rather than hang when it blocks for the missing diff.
func TestClientServerDiesMidSession(t *testing.T) {
	clientConn, serverConn := transport.Pipe(4, nil)
	frames := collect(t, 72, 40)
	go func() {
		// Handshake + initial checkpoint, then vanish.
		if _, err := serverConn.Recv(); err != nil {
			return
		}
		body, _, err := (*CheckpointCodec)(nil).EncodeFor(0, 0, tinyStudent(72).Params.All())
		if err != nil {
			return
		}
		serverConn.Send(transport.Message{Type: transport.MsgStudentFull, Body: body})
		// Consume the first key frame, then drop the connection without
		// answering.
		serverConn.Recv()
		serverConn.Close()
	}()
	cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(72)}
	err := cl.Run(clientConn, baseline.NewReplay(frames), len(frames))
	if err == nil {
		t.Fatal("client must report the lost server")
	}
}

// A malformed checkpoint must be rejected, not applied.
func TestClientRejectsCorruptCheckpoint(t *testing.T) {
	clientConn, serverConn := transport.Pipe(2, nil)
	go func() {
		serverConn.Recv()
		serverConn.Send(transport.Message{Type: transport.MsgStudentFull, Body: []byte{1, 2, 3}})
	}()
	cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(73)}
	frames := collect(t, 73, 10)
	if err := cl.Run(clientConn, baseline.NewReplay(frames), len(frames)); err == nil {
		t.Fatal("corrupt checkpoint must fail")
	}
}

// The server must reject protocol-version mismatches (forward compat).
func TestServerRejectsVersionMismatch(t *testing.T) {
	clientConn, serverConn := transport.Pipe(2, nil)
	srv := NewServer(DefaultConfig(), tinyStudent(74), teacher.NewOracle(74))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(serverConn) }()
	hello := transport.Hello{Version: 99}
	clientConn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(hello)})
	if err := <-done; err == nil {
		t.Fatal("server must reject unknown protocol versions")
	}
}

// A non-Hello first message must be rejected.
func TestServerRejectsBadHandshake(t *testing.T) {
	clientConn, serverConn := transport.Pipe(2, nil)
	srv := NewServer(DefaultConfig(), tinyStudent(75), teacher.NewOracle(75))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(serverConn) }()
	clientConn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: nil})
	if err := <-done; err == nil {
		t.Fatal("server must reject a handshake-less client")
	}
}

// A key frame whose oracle side-channel carries out-of-range classes (or a
// wrong-sized mask) must fail that session with a protocol error — not
// panic the confusion-matrix/loss indexing and take the whole multi-session
// process down with it.
func TestServerRejectsMalformedLabel(t *testing.T) {
	frame := collect(t, 77, 1)[0]
	pixels := frame.Image.Dim(1) * frame.Image.Dim(2)
	outOfRange := make([]int32, pixels)
	outOfRange[pixels/2] = 99 // class beyond NumClasses
	negative := make([]int32, pixels)
	negative[0] = -3
	bad := map[string][]int32{
		"out-of-range class":            outOfRange,
		"negative class":                negative,
		"wrong pixel count":             make([]int32, 5),
		"missing label, oracle teacher": nil,
	}
	for name, label := range bad {
		clientConn, serverConn := transport.Pipe(4, nil)
		srv := NewServer(DefaultConfig(), tinyStudent(77), teacher.NewOracle(77))
		done := make(chan error, 1)
		go func() { done <- srv.Serve(serverConn) }()
		hello := transport.Hello{Version: transport.Version}
		clientConn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(hello)})
		if m, err := clientConn.Recv(); err != nil || m.Type != transport.MsgHello {
			t.Fatalf("%s: no hello ack: %v %v", name, m.Type, err)
		}
		if m, err := clientConn.Recv(); err != nil || m.Type != transport.MsgStudentFull {
			t.Fatalf("%s: no initial checkpoint: %v %v", name, m.Type, err)
		}
		kf := transport.KeyFrame{FrameIndex: 0, Image: frame.Image, Label: label}
		clientConn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)})
		if err := <-done; err == nil {
			t.Fatalf("%s accepted; want protocol error", name)
		}
	}
}

// Clean shutdown: the server returns nil when the client closes politely.
func TestServerCleanShutdown(t *testing.T) {
	clientConn, serverConn := transport.Pipe(2, nil)
	srv := NewServer(DefaultConfig(), tinyStudent(76), teacher.NewOracle(76))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(serverConn) }()
	hello := transport.Hello{Version: transport.Version}
	clientConn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(hello)})
	if m, err := clientConn.Recv(); err != nil || m.Type != transport.MsgHello {
		t.Fatalf("no hello ack: %v %v", m.Type, err)
	}
	if m, err := clientConn.Recv(); err != nil || m.Type != transport.MsgStudentFull {
		t.Fatalf("no initial checkpoint: %v %v", m.Type, err)
	}
	clientConn.Send(transport.Message{Type: transport.MsgShutdown})
	if err := <-done; err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
}
