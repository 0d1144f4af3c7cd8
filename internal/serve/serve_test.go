package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// tinyStudent keeps per-iteration cost small so the race-detector runs stay
// fast; the architecture is the same shape as the paper student.
func tinyStudent(seed int64) *nn.Student {
	cfg := nn.StudentConfig{
		InChannels: 3, NumClasses: video.NumClasses,
		Stem1: 4, Stem2: 8,
		B1: 8, B2: 12, B3: 12, B4: 12,
		B5: 8, B6: 8, Head: 8,
	}
	return nn.NewStudent(cfg, rand.New(rand.NewSource(seed)))
}

func testManager(t *testing.T, base *nn.Student, maxSessions int) *Manager {
	t.Helper()
	cfg := core.DefaultConfig()
	m, err := NewManager(Options{
		Cfg:         cfg,
		Base:        base,
		Teacher:     teacher.NewOracle(7),
		MaxSessions: maxSessions,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runClient drives one full client session over an in-memory pipe against
// the manager and returns the client.
func runClient(t *testing.T, m *Manager, id uint64, seed int64, frames int) *core.Client {
	t.Helper()
	clientConn, serverConn := transport.Pipe(4, nil)
	defer clientConn.Close()

	errs := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		errs <- m.Handle(serverConn)
	}()

	gen, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, seed))
	if err != nil {
		t.Fatal(err)
	}
	cl := &core.Client{Cfg: core.DefaultConfig(), Student: tinyStudent(seed + 500), SessionID: id}
	if err := cl.Run(clientConn, gen, frames); err != nil {
		t.Fatalf("client %d: %v", id, err)
	}
	clientConn.Close()
	if err := <-errs; err != nil {
		t.Fatalf("session %d: %v", id, err)
	}
	return cl
}

// snapshotParams deep-copies every parameter value so mutation can be
// detected exactly.
func snapshotParams(s *nn.Student) map[string][]float32 {
	out := map[string][]float32{}
	for _, p := range s.Params.All() {
		out[p.Name] = append([]float32(nil), p.Value.Data...)
	}
	return out
}

// TestManagerConcurrentSessionsIsolated is the race-detector concurrency
// test: ≥8 in-memory clients run concurrently through one manager and one
// shared teacher. Per-session isolation holds — every session
// distils its own clone, so the shared base checkpoint is bit-identical
// afterwards — and shutdown is clean.
func TestManagerConcurrentSessionsIsolated(t *testing.T) {
	const clients = 8
	const frames = 28

	base := tinyStudent(21)
	before := snapshotParams(base)
	m := testManager(t, base, clients)

	var wg sync.WaitGroup
	results := make([]*core.Client, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runClient(t, m, uint64(c+1), int64(31+c), frames)
		}(c)
	}
	wg.Wait()

	st := m.Stats()
	if st.SessionsServed != clients {
		t.Fatalf("served %d sessions, want %d", st.SessionsServed, clients)
	}
	if st.Active != 0 {
		t.Fatalf("%d sessions still active after completion", st.Active)
	}

	// Every client made progress, and the server distilled exactly the key
	// frames the clients sent — through the shared teacher.
	var totalKF int64
	for c, cl := range results {
		if cl.Result.Frames != frames {
			t.Fatalf("client %d processed %d frames", c, cl.Result.Frames)
		}
		if cl.Result.KeyFrames < 1 {
			t.Fatalf("client %d sent no key frames", c)
		}
		totalKF += int64(cl.Result.KeyFrames)
	}
	if st.KeyFrames != totalKF {
		t.Fatalf("manager distilled %d key frames, clients sent %d", st.KeyFrames, totalKF)
	}
	if st.Teacher.Calls != totalKF {
		t.Fatalf("teacher labelled %d frames, want %d", st.Teacher.Calls, totalKF)
	}

	// Isolation: no session mutated the shared base checkpoint.
	after := snapshotParams(base)
	for name, want := range before {
		got := after[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("base checkpoint mutated: %s[%d] %v → %v", name, i, want[i], got[i])
			}
		}
	}

	// Clean shutdown: Close returns with nothing in flight and is idempotent.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Handle(nil); err != ErrClosed {
		t.Fatalf("Handle after Close: %v, want ErrClosed", err)
	}
}

// TestManagerSessionIDs checks requested IDs are honoured, collisions fall
// back to fresh assignments, and the acknowledged ID reaches the client.
func TestManagerSessionIDs(t *testing.T) {
	base := tinyStudent(22)
	m := testManager(t, base, 4)
	defer m.Close()

	// Two concurrent sessions requesting the same ID must both run, under
	// distinct registry keys, each told its actual ID in the hello ack.
	var wg sync.WaitGroup
	got := make([]uint64, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := runClient(t, m, 42, int64(61+c), 16)
			got[c] = cl.Result.SessionID
		}(c)
	}
	wg.Wait()
	if st := m.Stats(); st.SessionsServed != 2 {
		t.Fatalf("served %d, want 2", st.SessionsServed)
	}
	if got[0] == got[1] {
		t.Fatalf("both sessions acknowledged as %d", got[0])
	}
	if got[0] != 42 && got[1] != 42 {
		t.Fatalf("neither session got the requested ID 42: %v", got)
	}
}

// TestManagerCloseForceClosesStalledSession: a client that handshakes never
// must not wedge shutdown — Close force-closes its connection after
// DrainTimeout.
func TestManagerCloseForceClosesStalledSession(t *testing.T) {
	cfg := core.DefaultConfig()
	m, err := NewManager(Options{
		Cfg:          cfg,
		Base:         tinyStudent(24),
		Teacher:      teacher.NewOracle(7),
		MaxSessions:  2,
		DrainTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	clientConn, serverConn := transport.Pipe(2, nil)
	defer clientConn.Close()
	errs := make(chan error, 1)
	go func() { errs <- m.Handle(serverConn) }()

	// The "client" sends nothing; give Handle a moment to block in the
	// handshake, then Close must return promptly.
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a stalled session")
	}
	if err := <-errs; err == nil {
		t.Fatal("stalled session should end with a handshake error after force-close")
	}
}

// TestManagerOverTCP exercises the accept loop end to end on loopback.
func TestManagerOverTCP(t *testing.T) {
	base := tinyStudent(23)
	m := testManager(t, base, 8)

	ln, err := transport.Listen("127.0.0.1:0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- m.ServeListener(ln) }()

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
			cl := &core.Client{Cfg: core.DefaultConfig(), Student: tinyStudent(int64(81 + c))}
			if err := cl.Run(conn, gen, 16); err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	if st := m.Stats(); st.SessionsServed != clients {
		t.Fatalf("served %d, want %d", st.SessionsServed, clients)
	}
}

// noGoodbye drops the client's Shutdown, so closing the conn parks the
// session and its View can be read.
type noGoodbye struct{ transport.Conn }

func (c noGoodbye) Send(m transport.Message) error {
	if m.Type == transport.MsgShutdown {
		return nil
	}
	return c.Conn.Send(m)
}

// A client with no Base advertises the student its Run starts with. Handed
// a clone of the server's base, it gets a relative checkpoint — raw, since
// EnvelopeCodec is empty — of a few bytes a tensor; handed anything else,
// an absolute one. Either way it ends holding the server's student and
// View bit for bit. The student is the default one, whose tensors are large
// beside the per-tensor headers a relative checkpoint is made of.
func TestHelloCheckpointRelativeToHeldStudent(t *testing.T) {
	student := func(seed int64) *nn.Student {
		return nn.NewStudent(nn.DefaultStudentConfig(), rand.New(rand.NewSource(seed)))
	}
	base := student(41)
	size := int64(nn.EncodedSize(base.Params.All()))
	absolute, err := (&core.CheckpointCodec{Base: base.Params}).EncodeFor(0, base.Params.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		student  *nn.Student
		relative bool
	}{
		{"clone of base", base.Clone(), true},
		{"other seed", student(42), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewManager(Options{Cfg: core.DefaultConfig(), Base: base, Teacher: teacher.NewOracle(7), MaxSessions: 1, EnvelopeCodec: "", Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			clientConn, serverConn := transport.Pipe(4, nil)
			errs := make(chan error, 1)
			go func() {
				defer serverConn.Close()
				errs <- m.Handle(serverConn)
			}()
			cl := &core.Client{Cfg: core.DefaultConfig(), Student: tc.student}
			if err := cl.Run(noGoodbye{clientConn}, nil, 0); err != nil { // the handshake alone
				t.Fatal(err)
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}

			got := m.Stats().CheckpointBytes
			t.Logf("checkpoint %d bytes; parameters %d, absolute checkpoint %d", got, size, len(absolute))
			if tc.relative && got*100 >= size {
				t.Fatalf("checkpoint to a client holding the base is %d bytes, not under 1%% of %d", got, size)
			}
			if !tc.relative && got != int64(len(absolute)) {
				t.Fatalf("checkpoint to a client holding another student is %d bytes, the absolute one %d", got, len(absolute))
			}
			srv := parkedSession(t, m, cl.Result.SessionID).srv
			if nn.HashParams(cl.Student.Params.All()) != nn.HashParams(srv.Distiller.Student.Params.All()) {
				t.Fatal("client's student differs from the server's")
			}
			if nn.HashParams(nn.TrainableSubset(cl.Student.Params)) != nn.HashParams(srv.View.All()) {
				t.Fatal("client's trainable subset differs from the server's View")
			}
		})
	}
}
