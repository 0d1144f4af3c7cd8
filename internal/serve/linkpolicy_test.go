package serve

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// The diff codec is validated where it is configured: a bad LinkPolicy
// fails NewManager instead of killing every session at its first key frame.
func TestNewManagerLinkPolicyValidation(t *testing.T) {
	base := tinyStudent(5)
	for _, tc := range []struct {
		policy string
		ok     bool
	}{
		{"", true},
		{"static:int8", true},
		{"static:prune25", true},
		{"adaptive", false},
		{"no-such-policy", false},
		{"static:nope", false},
		{"static:delta+int8", false},
		{"static:", false},
	} {
		m, err := NewManager(Options{Cfg: core.DefaultConfig(), Base: base, Teacher: teacher.NewOracle(7), MaxSessions: 1, LinkPolicy: tc.policy})
		if (err == nil) != tc.ok {
			t.Errorf("LinkPolicy %q: err = %v, want ok=%v", tc.policy, err, tc.ok)
		}
		if m != nil {
			m.Close()
		}
	}
}

// diffCodec accepts "" (raw) and "static:<codec>" for a codec
// transport.DiffCodec accepts, and returns that codec; anything else — a
// bare codec, a retired policy or codec, an empty or base-relative codec —
// is refused.
func TestDiffCodecValidatesCodecs(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		codec string
		ok    bool
	}{
		{"", "", true},
		{"static:raw", "raw", true},
		{"static:int8", "int8", true},
		{"static:prune25", "prune25", true},
		{"adaptive", "", false},
		{"int8", "", false},
		{"no-such-policy", "", false},
		{"static:nope", "", false},
		{"static:bf16", "", false}, // a codec name until the handoff envelope went
		{"static:delta+int8", "", false},
		{"static:prune0", "", false},
		{"static:", "", false},
	} {
		codec, err := diffCodec(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("diffCodec(%q): err = %v, want ok=%v", tc.spec, err, tc.ok)
		}
		if tc.ok && codec != tc.codec {
			t.Errorf("diffCodec(%q) = %q, want %q", tc.spec, codec, tc.codec)
		}
	}
}

// A managed session under a lossy diff codec, with a client told nothing
// about it.
func TestManagerSessionWithLinkPolicy(t *testing.T) {
	base := tinyStudent(5)
	o := Options{Cfg: core.DefaultConfig(), Base: base, Teacher: teacher.NewOracle(7), MaxSessions: 1, LinkPolicy: "static:prune25"}
	m, err := NewManager(o)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	clientConn, serverConn := transport.Pipe(4, nil)
	defer clientConn.Close()
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer serverConn.Close()
		errs <- m.Handle(serverConn)
	}()

	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, 11))
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]video.Frame, 0, 40)
	for i := 0; i < 40; i++ {
		frames = append(frames, gen.Next())
	}
	cl := &core.Client{Cfg: core.DefaultConfig(), Student: base.Clone(), EvalTeacher: teacher.NewOracle(7)}
	if err := cl.Run(clientConn, video.NewReplay(frames), len(frames)); err != nil {
		t.Fatalf("client: %v", err)
	}
	clientConn.Close()
	wg.Wait()
	if err := <-errs; err != nil {
		t.Fatalf("manager: %v", err)
	}
	if cl.Result.KeyFrames < 1 {
		t.Fatalf("no key frames distilled")
	}
}

// Journal replay under a static codec: what the journal holds are
// int8 diffs, relative to the View, and they must decode — with strictly
// increasing Seq — and resolve against what the client holds, both when
// replayed after a plain detach and when replayed by another manager the
// session was moved to. A client that applies them ends up holding the
// server's View bit for bit, and with it the server's BatchNorm statistics:
// int8 is a contract about weights, and the statistics ride its delta
// stream exactly.
func TestResumeReplaysEnvelopesUnderStaticPolicy(t *testing.T) {
	newShard := func() *Manager {
		cfg := core.DefaultConfig()
		cfg.MaxUpdates = 1
		m, err := NewManager(Options{Cfg: cfg, Base: tinyStudent(41), Teacher: teacher.NewOracle(7),
			MaxSessions: 2, JournalDepth: 8, LinkPolicy: "static:int8", Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	src, dst := newShard(), newShard()
	_, frames := resumeManager(t, 1)

	var lastSeq uint64
	// What the client holds after each applied diff; seq 0 is the
	// checkpoint the handshake ships.
	held := map[uint64]*nn.ParamSet{0: tinyStudent(41).Params}
	int8Diff := func(m transport.Message) {
		t.Helper()
		d, dec, err := core.DecodeAdaptiveDiff(m.Body)
		if err != nil {
			t.Fatalf("diff after seq %d does not decode: %v", lastSeq, err)
		}
		if dec.Codec != "int8" || d.Seq != lastSeq+1 || !d.Relative {
			t.Fatalf("diff codec %q seq %d relative %v, want relative int8 seq %d", dec.Codec, d.Seq, d.Relative, lastSeq+1)
		}
		now := held[lastSeq].Clone()
		if err := d.Resolve(now); err != nil {
			t.Fatal(err)
		}
		if err := nn.ApplyNamed(now, d.Params); err != nil {
			t.Fatal(err)
		}
		lastSeq, held[d.Seq] = d.Seq, now
	}
	keyFrame := func(p *protoClient) {
		t.Helper()
		p.send()
		int8Diff(p.recv(transport.MsgStudentDiff))
	}
	replay := func(p *protoClient, m *Manager, applied uint64, want uint32) {
		t.Helper()
		ack := p.resume(m, applied)
		if ack.Status != transport.ResumeReplay || ack.NumDiffs != want {
			t.Fatalf("resume from seq %d: %+v, want a replay of %d", applied, ack, want)
		}
		lastSeq = applied
		for i := uint32(0); i < want; i++ {
			int8Diff(p.recv(transport.MsgStudentDiff))
		}
	}

	p := connect(t, src)
	p.frames = frames
	p.hello(7)
	for i := 0; i < 3; i++ {
		keyFrame(p)
	}
	p.drop(src)
	replay(p, src, 1, 2) // after a detach: diffs 2 and 3 come from the journal
	keyFrame(p)          // and the session continues at seq 4
	p.drop(src)

	if err := src.MoveParked(p.sessionID, dst); err != nil {
		t.Fatal(err)
	}
	replay(p, dst, 2, 2) // after a cross-shard move: diffs 3 and 4
	keyFrame(p)          // the codec moved with the session: seq 5 is int8 too
	p.drop(dst)

	srv, fresh := parkedSession(t, dst, p.sessionID).srv, tinyStudent(41)
	stats := 0
	for _, want := range srv.View.All() {
		got := held[lastSeq].Get(want.Name).Value.Data
		for i, v := range want.Value.Data {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				t.Fatalf("%s[%d] = %v on the client, %v in the server's View", want.Name, i, got[i], v)
			}
		}
		if !nn.IsBNStat(want.Name) {
			continue
		}
		trained := srv.Distiller.Student.Params.Get(want.Name).Value.Data
		for i, v := range want.Value.Data {
			if math.Float32bits(trained[i]) != math.Float32bits(v) {
				t.Fatalf("%s[%d] = %v in the View, %v in the student", want.Name, i, v, trained[i])
			}
			if v != fresh.Params.Get(want.Name).Value.Data[i] {
				stats++
			}
		}
	}
	if stats == 0 {
		t.Fatal("distillation moved no statistic; the comparison is vacuous")
	}
}

// What benchmark/taps.go relies on: under every diff codec a server can be
// given, transport.DecodeStudentDiff and core.DecodeAdaptiveDiff read every
// body it sends — live and replayed from the journal — as the same diff,
// and the codec the shim reports is the server's.
func TestTapsDecodeEveryServerBody(t *testing.T) {
	for _, tc := range []struct{ policy, codec string }{
		{"", "raw"}, {"static:raw", "raw"}, {"static:int8", "int8"}, {"static:prune25", "prune25"},
	} {
		cfg := core.DefaultConfig()
		cfg.MaxUpdates = 1
		m, err := NewManager(Options{Cfg: cfg, Base: tinyStudent(41), Teacher: teacher.NewOracle(7),
			MaxSessions: 1, JournalDepth: 8, LinkPolicy: tc.policy, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		_, frames := resumeManager(t, 1)
		p := &protoClient{t: t, frames: frames}
		open := func() {
			clientConn, serverConn := transport.Pipe(8, nil)
			done := make(chan error, 1)
			go func() {
				defer serverConn.Close()
				done <- m.Handle(serverConn)
			}()
			p.conn, p.done = clientConn, done
		}
		var bodies [][]byte
		open()
		p.hello(7)
		for i := 0; i < 3; i++ {
			p.send()
			bodies = append(bodies, p.recv(transport.MsgStudentDiff).Body)
		}
		p.drop(m)
		open()
		if err := p.conn.Send(transport.Message{Type: transport.MsgResume, Body: transport.EncodeResume(transport.Resume{SessionID: p.sessionID, Epoch: p.epoch, LastDiffSeq: 1})}); err != nil {
			t.Fatal(err)
		}
		if ack, err := transport.DecodeResumeAck(p.recv(transport.MsgResumeAck).Body); err != nil || ack.Status != transport.ResumeReplay || ack.NumDiffs != 2 {
			t.Fatalf("%q: resume: %+v, %v", tc.policy, ack, err)
		}
		for i := 0; i < 2; i++ {
			bodies = append(bodies, p.recv(transport.MsgStudentDiff).Body)
		}
		p.shutdown()
		m.Close()
		for i, body := range bodies {
			d, err := transport.DecodeStudentDiff(body)
			if err != nil {
				t.Fatalf("%q body %d: %v", tc.policy, i, err)
			}
			a, dec, err := core.DecodeAdaptiveDiff(body)
			if err != nil {
				t.Fatalf("%q body %d through the shim: %v", tc.policy, i, err)
			}
			if a.Seq != d.Seq || a.FrameIndex != d.FrameIndex || a.Metric != d.Metric || a.Relative != d.Relative ||
				!bytes.Equal(a.Payload, d.Payload) || len(a.Params) != len(d.Params) {
				t.Fatalf("%q body %d: shim read seq %d, decoder seq %d", tc.policy, i, a.Seq, d.Seq)
			}
			if dec.Codec != tc.codec || dec.Codec != d.Codec {
				t.Fatalf("%q body %d: codec %q beside %q, want %q", tc.policy, i, dec.Codec, d.Codec, tc.codec)
			}
		}
	}
}
