package serve

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/teacher"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/video"
)

// countingTeacher is an oracle that counts its calls and checks on every one
// that no other call is in flight and that the queue-depth gauge already
// counts it.
type countingTeacher struct {
	*teacher.Oracle
	depth    *telemetry.Gauge
	inFlight atomic.Int32
	calls    atomic.Int64
	problems atomic.Int32 // overlapping calls or an under-counted depth
}

func (c *countingTeacher) Infer(f video.Frame) []int32 {
	if c.inFlight.Add(1) != 1 || c.depth.Value() < 1 {
		c.problems.Add(1)
	}
	runtime.Gosched() // give another session the chance to overlap this call
	mask := c.Oracle.Infer(f)
	c.calls.Add(1)
	c.inFlight.Add(-1)
	return mask
}

// TestSharedTeacherSerialisesSessions runs 8 concurrent sessions through
// one manager: the shard's teacher never holds two calls at once, labels
// exactly the key frames the clients sent, and its queue-depth gauge is
// back at 0 once the sessions end.
func TestSharedTeacherSerialisesSessions(t *testing.T) {
	const clients = 8
	reg := telemetry.New()
	tch := &countingTeacher{Oracle: teacher.NewOracle(7)}
	m, err := NewManager(Options{
		Cfg: core.DefaultConfig(), Base: tinyStudent(21), Teacher: tch,
		MaxSessions: clients, Telemetry: reg, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	depth := reg.Gauge("shadowtutor_teacher_queue_depth", "", telemetry.L("shard", "0"))
	tch.depth = depth

	var wg sync.WaitGroup
	keyFrames := make([]int64, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keyFrames[c] = int64(runClient(t, m, uint64(c+1), int64(31+c), 14).Result.KeyFrames)
		}()
	}
	wg.Wait()

	var sent int64
	for _, n := range keyFrames {
		sent += n
	}
	if sent < clients {
		t.Fatalf("clients sent %d key frames; the test shares nothing", sent)
	}
	if n := tch.problems.Load(); n != 0 {
		t.Errorf("%d teacher calls overlapped another or ran with the depth gauge below 1", n)
	}
	if got := tch.calls.Load(); got != sent || m.Stats().Teacher.Calls != sent {
		t.Errorf("teacher ran %d calls (stats say %d), clients sent %d key frames", got, m.Stats().Teacher.Calls, sent)
	}
	if d := depth.Value(); d != 0 {
		t.Errorf("teacher queue depth %v after the sessions ended, want 0", d)
	}
}

// TestSharedTeacherForwardsRequiresLabel: a key frame without the label the
// oracle requires ends its own session with a protocol error, and the
// manager goes on serving the next one. Without the forward the oracle
// panics on the frame, and the panic takes the process down.
func TestSharedTeacherForwardsRequiresLabel(t *testing.T) {
	m, frames := resumeManager(t, 8)
	p := connect(t, m)
	p.hello(0)
	kf := transport.KeyFrame{FrameIndex: uint32(frames[0].Index), Image: frames[0].Image, Seq: 1}
	if err := p.conn.Send(transport.Message{Type: transport.MsgKeyFrame, Body: transport.EncodeKeyFrame(kf)}); err != nil {
		t.Fatal(err)
	}
	if err := <-p.done; err == nil || !strings.Contains(err.Error(), "requires one") {
		t.Fatalf("label-less key frame ended the session with %v, want the teacher's requires-one error", err)
	}
	p.conn.Close()

	q := connect(t, m)
	q.frames = frames
	q.hello(0)
	q.keyFrame()
	q.shutdown()
	if st := m.Stats(); st.Teacher.Calls != 1 {
		t.Errorf("teacher labelled %d frames, want only the second session's one", st.Teacher.Calls)
	}
}
