package telemetry

import (
	"sync"
	"time"
)

// Event kinds recorded into the trace ring. Constant strings keep Record
// allocation-free at the call sites.
const (
	EvSessionStart = "session_start"
	EvSessionEnd   = "session_end"
	EvDetach       = "detach"
	EvResume       = "resume"
	EvEvict        = "evict"
	EvShed         = "shed"
	EvHandoff      = "handoff"
	EvMigrate      = "migrate"
	EvDrain        = "drain"
)

// Event is one entry in the trace ring: a session-lifecycle or
// control-plane decision with enough attribution (session, epoch, seq,
// shard) to reconstruct what the fabric did to a session and when.
type Event struct {
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	Session uint64    `json:"session,omitempty"`
	Epoch   uint32    `json:"epoch,omitempty"`
	Seq     uint64    `json:"seq,omitempty"`
	Shard   int       `json:"shard"`
	Detail  string    `json:"detail,omitempty"`
}

const defaultTraceCap = 4096

// TraceRing is a bounded, mutex-guarded ring of Events. Record copies the
// event by value into preallocated storage — no allocation — and
// overwrites the oldest entry once full. All methods are safe on a nil
// receiver, so disabled tracing is a nil check.
type TraceRing struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total uint64
}

// NewTraceRing returns a ring holding the last n events (n < 1 is
// clamped to the default capacity).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = defaultTraceCap
	}
	return &TraceRing{buf: make([]Event, n)}
}

// Record appends one event, evicting the oldest when full. Safe on a nil
// receiver. Callers keep Detail to constant or pre-built strings so the
// record path stays allocation-free.
func (t *TraceRing) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.total++
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *TraceRing) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Event, t.next)
		copy(out, t.buf[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Total returns the number of events ever recorded (including evicted
// ones). A nil ring reads zero.
func (t *TraceRing) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
