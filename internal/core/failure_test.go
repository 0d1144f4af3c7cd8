package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

// A server that vanishes before the handshake must surface a clean error.
func TestClientServerGoneBeforeHandshake(t *testing.T) {
	clientConn, serverConn := transport.Pipe(1, nil)
	serverConn.Close()
	cl := &Client{Cfg: DefaultConfig(), Student: tinyStudent(71)}
	frames := collect(t, 71, 10)
	if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err == nil {
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
		body, err := (*CheckpointCodec)(nil).EncodeFor(0, tinyStudent(72).Params.All())
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
	err := cl.Run(clientConn, video.NewReplay(frames), len(frames))
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
	if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err == nil {
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
		kf := transport.KeyFrame{FrameIndex: 0, Image: frame.Image, Label: label, Seq: 1}
		clientConn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)})
		if err := <-done; err == nil {
			t.Fatalf("%s accepted; want protocol error", name)
		}
	}
}

// handshaken returns a server past its handshake on one end of a pipe, the
// client end, and the channel Loop's result arrives on.
func handshaken(t *testing.T, seed int64) (*Server, *transport.PipeConn, chan error) {
	t.Helper()
	clientConn, serverConn := transport.Pipe(4, nil)
	srv := NewServer(DefaultConfig(), tinyStudent(seed), teacher.NewOracle(seed))
	done := make(chan error, 1)
	go func() {
		if _, err := srv.Handshake(serverConn); err != nil {
			done <- err
			return
		}
		done <- srv.Loop(serverConn)
		serverConn.Close()
	}()
	clientConn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(transport.Hello{Version: transport.Version})})
	for _, want := range []transport.MsgType{transport.MsgHello, transport.MsgStudentFull} {
		if m, err := clientConn.Recv(); err != nil || m.Type != want {
			t.Fatalf("handshake: got %v %v, want %v", m.Type, err, want)
		}
	}
	return srv, clientConn, done
}

// recordingTeacher keeps a copy of every image the server hands its
// teacher.
type recordingTeacher struct {
	teacher.Teacher
	images []*tensor.Tensor
}

func (r *recordingTeacher) Infer(f video.Frame) []int32 {
	r.images = append(r.images, f.Image.Clone())
	return r.Teacher.Infer(f)
}

// The key frame's image coder is lossless: the server trains on exactly the
// floats the client rendered, bit for bit — ±0, denormals and values far
// outside [0, 1] included.
func TestServerHoldsClientPixels(t *testing.T) {
	frame := collect(t, 79, 1)[0]
	srv, clientConn, done := handshaken(t, 79)
	rec := &recordingTeacher{Teacher: srv.Teacher}
	srv.Teacher = rec
	img := frame.Image.Clone()
	for i, bits := range []uint32{0x80000000, 0x00000001, 0x807fffff, math.Float32bits(-3), math.Float32bits(1e30)} {
		img.Data[i*997] = math.Float32frombits(bits)
	}
	kf := transport.KeyFrame{Image: img, Label: frame.Label, Seq: 1}
	clientConn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)})
	if m, err := clientConn.Recv(); err != nil || m.Type != transport.MsgStudentDiff {
		t.Fatalf("got %v %v, want a student diff", m.Type, err)
	}
	clientConn.Send(transport.Message{Type: transport.MsgShutdown})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(rec.images) != 1 {
		t.Fatalf("teacher saw %d images, want 1", len(rec.images))
	}
	for i, v := range img.Data {
		if got := math.Float32bits(rec.images[0].Data[i]); got != math.Float32bits(v) {
			t.Fatalf("pixel %d: server holds %08x, client sent %08x", i, got, math.Float32bits(v))
		}
	}
}

// A key frame's pixels come from outside the process. One non-finite pixel
// would leave the trainable weights non-finite after a single Train and the
// next diff would ship them; it must instead end that session as a protocol
// violation — a plain error, never ErrConnLost, so the session is not parked
// for resume — before any training and without a diff going out.
func TestServerRejectsNonFinitePixel(t *testing.T) {
	frame := collect(t, 78, 1)[0]
	for name, bad := range map[string]float32{
		"+Inf": float32(math.Inf(1)),
		"-Inf": float32(math.Inf(-1)),
		"NaN":  float32(math.NaN()),
	} {
		srv, clientConn, done := handshaken(t, 78)
		before := srv.Distiller.Student.Params.Clone()
		img := frame.Image.Clone()
		img.Data[img.Len()/2] = bad
		kf := transport.KeyFrame{FrameIndex: 0, Image: img, Label: frame.Label, Seq: 1}
		clientConn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)})
		// The server end closes once Loop has returned, so this reads a
		// reply if one was sent and EOF if not.
		if m, err := clientConn.Recv(); err == nil {
			t.Fatalf("%s pixel: server answered the bad key frame with %v", name, m.Type)
		}
		if err := <-done; err == nil || errors.Is(err, ErrConnLost) {
			t.Fatalf("%s pixel: Loop returned %v; want a protocol error", name, err)
		}
		if srv.Distiller.TotalTrains != 0 {
			t.Fatalf("%s pixel: the distiller trained on it", name)
		}
		for i, p := range srv.Distiller.Student.Params.All() {
			want := before.All()[i].Value
			for j, v := range p.Value.Data {
				if math.Float32bits(v) != math.Float32bits(want.Data[j]) {
					t.Fatalf("%s pixel: server student moved (%s[%d])", name, p.Name, j)
				}
			}
		}
	}
}

// A key frame's shape comes from outside the process too. An image the
// student cannot take — another channel count, or a side that is not a
// multiple of 8 — would panic inside the student or the shared teacher and
// take every session down with it; it must instead end that session as a
// protocol violation, before any training and without a diff going out.
func TestServerRejectsMisshapenKeyFrame(t *testing.T) {
	for _, shape := range [][]int{{1, 64, 96}, {4, 64, 96}, {3, 63, 95}, {3, 7, 5}} {
		srv, clientConn, done := handshaken(t, 78)
		img := tensor.New(shape...)
		img.Fill(0.5)
		kf := transport.KeyFrame{Image: img, Label: make([]int32, shape[1]*shape[2]), Seq: 1}
		clientConn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)})
		if m, err := clientConn.Recv(); err == nil {
			t.Fatalf("%v image: server answered with %v", shape, m.Type)
		}
		if err := <-done; err == nil || errors.Is(err, ErrConnLost) {
			t.Fatalf("%v image: Loop returned %v; want a protocol error", shape, err)
		}
		if srv.Distiller.TotalTrains != 0 || srv.DiffSeq != 0 {
			t.Fatalf("%v image: the server trained %d times and numbered %d diffs", shape, srv.Distiller.TotalTrains, srv.DiffSeq)
		}
	}
}

// Every key frame carries an eight-byte Seq from 1 on. One without — no
// Seq, or Seq 0 — after a numbered one is a protocol error, not an
// unnumbered frame exempt from the replay check: it ends the session
// before any training and without a diff going out.
func TestServerRejectsUnnumberedKeyFrame(t *testing.T) {
	frame := collect(t, 80, 1)[0]
	numbered := transport.EncodeKeyFrame(transport.KeyFrame{Image: frame.Image, Label: frame.Label, Seq: 2})
	for name, body := range map[string][]byte{
		"no seq": numbered[:len(numbered)-8],
		"seq 0":  append(numbered[:len(numbered)-8:len(numbered)-8], make([]byte, 8)...),
	} {
		srv, clientConn, done := handshaken(t, 80)
		first := transport.EncodeKeyFrame(transport.KeyFrame{Image: frame.Image, Label: frame.Label, Seq: 1})
		clientConn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: first})
		if m, err := clientConn.Recv(); err != nil || m.Type != transport.MsgStudentDiff {
			t.Fatalf("%s: numbered key frame got %v, %v", name, m.Type, err)
		}
		clientConn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: body})
		if m, err := clientConn.Recv(); err == nil {
			t.Fatalf("%s: server answered with %v", name, m.Type)
		}
		if err := <-done; err == nil || errors.Is(err, ErrConnLost) {
			t.Fatalf("%s: Loop returned %v; want a protocol error", name, err)
		}
		if srv.Distiller.TotalTrains != 1 {
			t.Fatalf("%s: the distiller trained %d times", name, srv.Distiller.TotalTrains)
		}
	}
}

// Only key frames and shutdown travel client → server after the handshake;
// anything else — including MsgPrediction, a reserved type no peer sends —
// ends the session with a protocol error.
func TestServerRejectsUnexpectedMessage(t *testing.T) {
	for _, typ := range []transport.MsgType{transport.MsgPrediction, transport.MsgStudentDiff, transport.MsgHello} {
		_, clientConn, done := handshaken(t, 79)
		clientConn.Send(transport.Message{Type: typ})
		if err := <-done; err == nil || errors.Is(err, ErrConnLost) {
			t.Fatalf("%v after the handshake: Loop returned %v; want a protocol error", typ, err)
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
