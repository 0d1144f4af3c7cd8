package transport

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/video"
)

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Version: 3, NumClass: 9, FrameW: 96, FrameH: 64, Partial: true}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip %+v != %+v", got, h)
	}
}

func TestKeyFrameRoundTrip(t *testing.T) {
	img := tensor.New(3, 8, 8)
	for i := range img.Data {
		img.Data[i] = float32(i) / 10
	}
	label := make([]int32, 64)
	label[5] = 3
	k := KeyFrame{FrameIndex: 42, Image: img, Label: label, Seq: 1}
	got, err := DecodeKeyFrame(EncodeKeyFrame(k))
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameIndex != 42 {
		t.Fatalf("index %d", got.FrameIndex)
	}
	for i := range img.Data {
		if got.Image.Data[i] != img.Data[i] {
			t.Fatal("image corrupted")
		}
	}
	if !slices.Equal(got.Label, label) {
		t.Fatal("label corrupted")
	}
}

// The label rides as runs: a handful of bytes for a mask of a few regions,
// and a decoder that takes the pixel count from the image, not the runs.
func TestKeyFrameLabelRuns(t *testing.T) {
	img := tensor.New(3, 16, 32)
	label := make([]int32, 16*32)
	for i := range label {
		label[i] = int32(i / 200) // three regions
	}
	label[511] = -1 // any int32 survives, even one core will reject
	k := KeyFrame{Image: img, Label: label, Seq: 4}
	body := EncodeKeyFrame(k)
	if extra := len(body) - len(EncodeKeyFrame(KeyFrame{Image: img, Seq: 4})); extra <= 0 || extra > 32 {
		t.Fatalf("label of 4 runs cost %d bytes", extra)
	}
	got, err := DecodeKeyFrame(body)
	if err != nil || !slices.Equal(got.Label, label) || got.Seq != 4 {
		t.Fatalf("round trip: %v (seq %d)", err, got.Seq)
	}
	for name, runs := range map[string][]int32{
		"short":         label[:500],
		"long":          append(append([]int32(nil), label...), 7),
		"other image's": make([]int32, 8*8),
	} {
		k.Label = runs
		if _, err := DecodeKeyFrame(EncodeKeyFrame(k)); err == nil {
			t.Fatalf("%s label decoded against a 16×32 image", name)
		}
	}
}

func TestKeyFrameNoLabel(t *testing.T) {
	k := KeyFrame{Image: tensor.New(3, 8, 8), Seq: 1}
	got, err := DecodeKeyFrame(EncodeKeyFrame(k))
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != nil {
		t.Fatal("nil label must survive round trip")
	}
}

// KeyFrameWireBytes is the nominal float32 size, the unit the HD traffic
// model scales: the label leaves it alone, and the coded body of a rendered
// frame comes in under it.
func TestKeyFrameWireBytesExcludesLabel(t *testing.T) {
	img := tensor.New(3, 8, 8)
	with := KeyFrame{Image: img, Label: make([]int32, 64)}
	without := KeyFrame{Image: img}
	if KeyFrameWireBytes(with) != KeyFrameWireBytes(without) {
		t.Fatal("wire byte accounting must exclude the oracle side-channel")
	}
	if want := 4 + 1 + 3*4 + 4*3*8*8 + 4 + 8; KeyFrameWireBytes(without) != want {
		t.Fatalf("nominal size %d, want the float32 body's %d", KeyFrameWireBytes(without), want)
	}
	for name, f := range renderedFrames(t) {
		k := KeyFrame{Image: f.Image, Seq: 1}
		if got, nominal := len(EncodeKeyFrame(k)), KeyFrameWireBytes(k); got >= nominal {
			t.Errorf("%s: coded body %d B, not under the nominal %d B", name, got, nominal)
		}
	}
}

// renderedFrames returns the second frame of each LVS category and of the
// drone stream.
func renderedFrames(t *testing.T) map[string]video.Frame {
	t.Helper()
	cfgs := map[string]video.Config{}
	for _, c := range video.Categories {
		cfgs[c.String()] = video.CategoryConfig(c, 5)
	}
	drone, err := video.NamedVideo("drone", 5)
	if err != nil {
		t.Fatal(err)
	}
	cfgs["drone"] = drone
	frames := map[string]video.Frame{}
	for name, cfg := range cfgs {
		g, err := video.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.Next()
		frames[name] = g.Next()
	}
	return frames
}

// The server must train on exactly the floats the client rendered, so the
// image coder is compared bit pattern for bit pattern — NaN payloads, ±Inf,
// ±0, denormals and values far outside [0, 1] included, beside every kind
// of rendered frame, and a drone frame's G and B predicted across channels.
func TestKeyFrameBitIdentity(t *testing.T) {
	odd := tensor.New(3, 5, 7) // non-square, with odd rows and columns
	special := []uint32{
		0x7fc00000, 0x7fc00001, 0xffbfffff, 0x7f800001, // quiet and signalling NaNs, with payloads
		0x7f800000, 0xff800000, // ±Inf
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x807fffff, 0x00400000, // denormals
		math.Float32bits(math.MaxFloat32), math.Float32bits(-1e30), math.Float32bits(-5), math.Float32bits(300),
	}
	rng := rand.New(rand.NewSource(3))
	for i := range odd.Data {
		if i < len(special) {
			odd.Data[i] = math.Float32frombits(special[i])
		} else {
			odd.Data[i] = math.Float32frombits(rng.Uint32())
		}
	}
	images := map[string]*tensor.Tensor{"special values": odd}
	for name, f := range renderedFrames(t) {
		images[name] = f.Image
	}
	for name, img := range images {
		body := EncodeKeyFrame(KeyFrame{Image: img, Seq: 1})
		if p := planePredictors(body); name == "drone" && !bytes.Equal(p[1:], []byte{2, 2}) {
			t.Fatalf("drone: planes under predictors %v, want G and B from the plane before", p)
		}
		got, err := DecodeKeyFrame(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Image.SameShape(img) {
			t.Fatalf("%s: shape %v, want %v", name, got.Image.Shape(), img.Shape())
		}
		for i, v := range img.Data {
			if g := math.Float32bits(got.Image.Data[i]); g != math.Float32bits(v) {
				t.Fatalf("%s: pixel %d decoded as %08x, sent %08x", name, i, g, math.Float32bits(v))
			}
		}
	}
}

// paramBits flattens parameter values to their bit patterns for exact
// comparison.
func paramBits(ps []*nn.Parameter) (out []uint32) {
	for _, p := range ps {
		for _, v := range p.Value.Data {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

func TestStudentDiffRoundTrip(t *testing.T) {
	held := nn.NewParamSet()
	held.Add("sb5.c33.w", tensor.Full(0.25, 2, 3))
	held.Add("out3.b", tensor.Full(-1, 4))
	now := []*nn.Parameter{
		{Name: "sb5.c33.w", Value: tensor.Full(0.2500001, 2, 3)},
		{Name: "out3.b", Value: tensor.Full(-1, 4)},
	}
	for _, ref := range []*nn.ParamSet{nil, held} {
		// An empty codec name encodes as raw.
		body, err := EncodeStudentDiff(StudentDiff{FrameIndex: 7, Metric: 0.815, Seq: 1, Params: now, Ref: ref})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeStudentDiff(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.FrameIndex != 7 || got.Metric != 0.815 || got.Seq != 1 || got.Relative != (ref != nil) {
			t.Fatalf("header corrupted: %+v", got)
		}
		if got.Codec != "raw" {
			t.Fatalf("codec %q, want raw", got.Codec)
		}
		if got.Params != nil || got.Payload == nil {
			t.Fatal("the stateless parse must leave the parameter section undecoded")
		}
		if err := got.Resolve(held); err != nil {
			t.Fatal(err)
		}
		if len(got.Params) != 2 || got.Params[0].Name != "sb5.c33.w" || !slices.Equal(paramBits(got.Params), paramBits(now)) {
			t.Fatalf("params corrupted: %+v", got.Params)
		}
	}
}

// A relative diff resolves only over the reference it was encoded against:
// a receiver whose weights differ in one bit, or that lacks a parameter,
// gets an error, never a student.
func TestStudentDiffResolveChecksReference(t *testing.T) {
	ref := nn.NewParamSet()
	ref.Add("w", tensor.Full(1, 8))
	body, err := EncodeStudentDiff(StudentDiff{Seq: 2, Params: []*nn.Parameter{{Name: "w", Value: tensor.Full(1.5, 8)}}, Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	drifted := ref.Clone()
	drifted.Get("w").Value.Data[3] = math.Nextafter32(1, 2)
	for name, held := range map[string]*nn.ParamSet{"one bit off": drifted, "missing parameter": nn.NewParamSet()} {
		d, err := DecodeStudentDiff(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Resolve(held); err == nil {
			t.Fatalf("%s: relative diff resolved over the wrong reference", name)
		}
	}
	d, _ := DecodeStudentDiff(append(body[:len(body):len(body)], 0))
	if err := d.Resolve(ref); err == nil {
		t.Fatal("trailing bytes after the parameter stream must be rejected")
	}
}

func TestSequenceNumbersRoundTrip(t *testing.T) {
	k := KeyFrame{FrameIndex: 9, Image: tensor.New(3, 4, 4), Seq: 17}
	gk, err := DecodeKeyFrame(EncodeKeyFrame(k))
	if err != nil {
		t.Fatal(err)
	}
	if gk.Seq != 17 {
		t.Fatalf("keyframe seq %d, want 17", gk.Seq)
	}
	d := StudentDiff{FrameIndex: 3, Metric: 0.5, Seq: 41,
		Params: []*nn.Parameter{{Name: "w", Value: tensor.Full(1, 2)}}}
	body, err := EncodeStudentDiff(d)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := DecodeStudentDiff(body)
	if err != nil {
		t.Fatal(err)
	}
	if gd.Seq != 41 {
		t.Fatalf("diff seq %d, want 41", gd.Seq)
	}
}

func TestHelloEpochRoundTrip(t *testing.T) {
	h := Hello{Version: Version, NumClass: 9, SessionID: 5, Epoch: 3}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip %+v != %+v", got, h)
	}
}

func TestResumeRoundTrip(t *testing.T) {
	r := Resume{SessionID: 12, Epoch: 3, LastDiffSeq: 99}
	got, err := DecodeResume(EncodeResume(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip %+v != %+v", got, r)
	}
	// Truncated and padded bodies must fail at the boundary.
	body := EncodeResume(r)
	if _, err := DecodeResume(body[:len(body)-1]); err == nil {
		t.Fatal("truncated resume must error")
	}
	if _, err := DecodeResume(append(body, 0)); err == nil {
		t.Fatal("padded resume must error")
	}
	if _, err := DecodeResume(nil); err == nil {
		t.Fatal("empty resume must error")
	}
}

func TestResumeAckRoundTrip(t *testing.T) {
	for _, a := range []ResumeAck{
		{Status: ResumeReplay, Epoch: 2, HeadSeq: 7, NumDiffs: 3},
		{Status: ResumeFull, Epoch: 5, HeadSeq: 40},
		{Status: ResumeReject, Reason: "unknown or expired session"},
		{Status: ResumeRetry, Reason: "session 9 still attached"},
	} {
		body, err := EncodeResumeAck(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResumeAck(body)
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("round trip %+v != %+v", got, a)
		}
	}
	if _, err := DecodeResumeAck([]byte{0, 1, 2}); err == nil {
		t.Fatal("unknown status must error")
	}
	if _, err := DecodeResumeAck(nil); err == nil {
		t.Fatal("empty ack must error")
	}
	body, _ := EncodeResumeAck(ResumeAck{Status: ResumeReject, Reason: "xyz"})
	if _, err := DecodeResumeAck(body[:len(body)-1]); err == nil {
		t.Fatal("truncated reason must error")
	}
}

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: MsgHello, Body: []byte("hi")},
		{Type: MsgShutdown, Body: nil},
		{Type: MsgKeyFrame, Body: bytes.Repeat([]byte{9}, 1000)},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("framing mismatch: %v vs %v", got.Type, want.Type)
		}
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteMessage(&buf, Message{Type: MsgHello, Body: []byte("hello")})
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadMessage(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated body must error")
	}
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream error = %v, want EOF", err)
	}
}

func TestReadMessageRejectsHugeFrame(t *testing.T) {
	hdr := []byte{byte(MsgHello), 0xff, 0xff, 0xff, 0xff}
	if _, err := ReadMessage(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame must error")
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	if _, err := DecodeHello([]byte{1}); err == nil {
		t.Fatal("short hello must error")
	}
	if _, err := DecodeKeyFrame([]byte{1, 2}); err == nil {
		t.Fatal("short keyframe must error")
	}
	if _, err := DecodeStudentDiff([]byte{1}); err == nil {
		t.Fatal("short diff must error")
	}
	// Implausible rank.
	bad := EncodeKeyFrame(KeyFrame{Image: tensor.New(3, 8, 8)})
	bad[4] = 200
	if _, err := DecodeKeyFrame(bad); err == nil {
		t.Fatal("implausible rank must error")
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, tc := range []struct {
		mt   MsgType
		want string
	}{{MsgHello, "Hello"}, {MsgStudentDiff, "StudentDiff"}, {MsgType(99), "MsgType(99)"}} {
		if tc.mt.String() != tc.want {
			t.Fatalf("%d → %q, want %q", tc.mt, tc.mt.String(), tc.want)
		}
	}
}

func TestPipeSendRecv(t *testing.T) {
	c, s := Pipe(2, nil)
	defer c.Close()
	defer s.Close()
	if err := c.Send(Message{Type: MsgHello, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	m, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgHello {
		t.Fatalf("got %v", m.Type)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	c, s := Pipe(0, nil)
	done := make(chan error, 1)
	go func() {
		_, err := s.Recv()
		done <- err
	}()
	c.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("Recv after peer close = %v, want EOF", err)
	}
}

func TestPipeSendAfterCloseFails(t *testing.T) {
	c, s := Pipe(1, nil)
	s.Close()
	if err := c.Send(Message{Type: MsgHello}); err == nil {
		t.Fatal("send to closed peer must fail")
	}
}

func TestPipeDrainsQueuedAfterPeerClose(t *testing.T) {
	c, s := Pipe(2, nil)
	c.Send(Message{Type: MsgHello})
	c.Close()
	if m, err := s.Recv(); err != nil || m.Type != MsgHello {
		t.Fatalf("queued message lost: %v %v", m.Type, err)
	}
}

func TestPipeAccounting(t *testing.T) {
	var acct netsim.Accountant
	c, s := Pipe(2, &acct)
	c.Send(Message{Type: MsgKeyFrame, Body: make([]byte, 100)})
	s.Send(Message{Type: MsgStudentDiff, Body: make([]byte, 50)})
	up, down := acct.Totals()
	if up != 105 || down != 55 {
		t.Fatalf("accounting %d/%d", up, down)
	}
}

func TestPipeConcurrentSenders(t *testing.T) {
	c, s := Pipe(64, nil)
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Send(Message{Type: MsgKeyFrame})
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if _, err := s.Recv(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPConnEndToEnd(t *testing.T) {
	var acct netsim.Accountant
	ln, err := Listen("127.0.0.1:0", 0, &acct)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		m, err := conn.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- conn.Send(Message{Type: m.Type, Body: m.Body})
	}()
	conn, err := Dial(ln.Addr(), 0, &acct)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := Message{Type: MsgKeyFrame, Body: []byte("payload")}
	if err := conn.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || !bytes.Equal(got.Body, want.Body) {
		t.Fatal("echo mismatch")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	up, down := acct.Totals()
	if up == 0 || down == 0 {
		t.Fatalf("accounting %d/%d should be nonzero", up, down)
	}
}

// Property: arbitrary message bodies survive framing.
func TestQuickFramingRoundTrip(t *testing.T) {
	f := func(body []byte, typ uint8) bool {
		var buf bytes.Buffer
		m := Message{Type: MsgType(typ), Body: body}
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		return got.Type == m.Type && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKeyFrameCodec encodes and decodes one drone key frame, the solo
// workloads' stream, label included, and reports the body's size.
func BenchmarkKeyFrameCodec(b *testing.B) {
	cfg, err := video.NamedVideo("drone", 11)
	if err != nil {
		b.Fatal(err)
	}
	g, err := video.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f := g.Next()
	k := KeyFrame{FrameIndex: 1, Image: f.Image, Label: f.Label, Seq: 1}
	var wire int
	for b.Loop() {
		body := EncodeKeyFrame(k)
		if _, err := DecodeKeyFrame(body); err != nil {
			b.Fatal(err)
		}
		wire = len(body)
	}
	b.ReportMetric(float64(wire), "wire_bytes/op")
}
