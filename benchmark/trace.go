package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// clientShift places the client number in the high bits of the frame index
// the benchmark's video source hands out, so a teacher call — which sees
// only the frame — can be attributed to its session.
const clientShift = 20

// span is one timed interval of a key frame's round trip. Spans of one key
// frame share (Session, KF); Parent names the enclosing span.
type span struct {
	Name    string  `json:"name"`
	Session uint64  `json:"session"`
	KF      uint64  `json:"kf"`
	Parent  string  `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.EndMs - s.StartMs }

// sessionTrace holds the raw server-side timestamps of one session; the
// client side lives in clientTaps.
type sessionTrace struct {
	mu        sync.Mutex
	helloRecv time.Time
	fullSent  time.Time
	kfRecv    []time.Time // Recv return of the k-th key frame
	diffSend  []time.Time // Send entry of the diff answering it
}

type teacherEvent struct {
	start, end time.Time
	frameIndex int
}

// trace is the in-memory buffer of one traced pass. The taps append raw
// timestamps into preallocated slices; spans are assembled from them once
// the pass is over.
type trace struct {
	sessions map[uint64]*sessionTrace // fixed before the pass starts

	mu      sync.Mutex
	teacher []teacherEvent
}

func newTrace(ids []uint64, maxKeyFrames int) *trace {
	tr := &trace{
		sessions: make(map[uint64]*sessionTrace, len(ids)),
		teacher:  make([]teacherEvent, 0, maxKeyFrames*len(ids)),
	}
	for _, id := range ids {
		tr.sessions[id] = &sessionTrace{
			kfRecv:   make([]time.Time, 0, maxKeyFrames),
			diffSend: make([]time.Time, 0, maxKeyFrames),
		}
	}
	return tr
}

func (tr *trace) session(id uint64) *sessionTrace { return tr.sessions[id] }

func (tr *trace) teacherCall(start, end time.Time, frameIndex int) {
	tr.mu.Lock()
	tr.teacher = append(tr.teacher, teacherEvent{start, end, frameIndex})
	tr.mu.Unlock()
}

// spans assembles the span tree of every answered key frame:
//
//	keyframe_rtt                 client Send(KeyFrame) entry → Recv returns the diff
//	├ netsim.uplink              client Send entry → server Recv return
//	├ serve.keyframe             server Recv return → server Send(StudentDiff) entry
//	│ └ teacher.infer            the teacher call that labelled the frame
//	└ netsim.downlink            server Send entry → client Recv return
func (tr *trace) spans(origin time.Time, ids []uint64, taps []*clientTaps) []span {
	rel := func(t time.Time) float64 { return ms(t.Sub(origin)) }
	byFrame := make(map[int]teacherEvent, len(tr.teacher))
	for _, e := range tr.teacher {
		byFrame[e.frameIndex] = e
	}
	var out []span
	for c, id := range ids {
		st := tr.sessions[id]
		for _, d := range taps[c].diffs {
			k := int(d.seq)
			if k < 1 || k > len(taps[c].kfSend) || k > len(st.kfRecv) || k > len(st.diffSend) {
				continue
			}
			sent, got, answered := taps[c].kfSend[k-1], st.kfRecv[k-1], st.diffSend[k-1]
			add := func(name, parent string, a, b time.Time) {
				out = append(out, span{name, id, d.seq, parent, rel(a), rel(b)})
			}
			add("keyframe_rtt", "", sent, d.at)
			add("netsim.uplink", "keyframe_rtt", sent, got)
			add("serve.keyframe", "keyframe_rtt", got, answered)
			if e, ok := byFrame[int(d.frameIndex)]; ok {
				add("teacher.infer", "serve.keyframe", e.start, e.end)
			}
			add("netsim.downlink", "keyframe_rtt", answered, d.at)
		}
	}
	return out
}

// durations returns the lengths in ms of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
