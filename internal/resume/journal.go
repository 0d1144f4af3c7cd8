package resume

import (
	"fmt"
	"sync"
)

// Entry is one journaled student diff: its sequence number and the exact
// encoded body that was (or was about to be) sent on the wire. Bodies are
// retained as given — the producer must hand over ownership.
type Entry struct {
	Seq  uint64
	Body []byte
}

// Journal is a bounded ring of the most recent sequenced student diffs of
// one session. The server appends every diff as it encodes it; on resume,
// Suffix returns exactly the entries a reconnecting client missed, or
// reports that the gap has been evicted and a full checkpoint is needed.
// It is safe for concurrent use (the session goroutine appends while a
// resume handler reads).
type Journal struct {
	mu      sync.Mutex
	depth   int
	entries []Entry // ring buffer
	start   int     // index of the oldest entry
	n       int     // live entries
}

// NewJournal returns a journal retaining the last depth diffs (min 1).
func NewJournal(depth int) *Journal {
	if depth < 1 {
		depth = 1
	}
	return &Journal{depth: depth, entries: make([]Entry, depth)}
}

// Append records one diff. Sequence numbers must be strictly increasing —
// they are produced by a single session goroutine — so a violation is a
// programming error and panics.
func (j *Journal) Append(seq uint64, body []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n > 0 {
		if last := j.entries[(j.start+j.n-1)%j.depth].Seq; seq <= last {
			panic(fmt.Sprintf("resume: journal append seq %d not after %d", seq, last))
		}
	}
	if j.n == j.depth {
		j.entries[j.start] = Entry{Seq: seq, Body: body}
		j.start = (j.start + 1) % j.depth
		return
	}
	j.entries[(j.start+j.n)%j.depth] = Entry{Seq: seq, Body: body}
	j.n++
}

// Tail returns the oldest retained sequence (0 when empty).
func (j *Journal) Tail() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n == 0 {
		return 0
	}
	return j.entries[j.start].Seq
}

// Len returns the number of retained entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Suffix returns a copy of the entries with Seq > after, oldest first. ok
// is false when the suffix is incomplete — the client's gap reaches past
// the eviction horizon (after+1 < Tail) — in which case the caller must
// fall back to a full checkpoint. A request that is already current
// (after ≥ Head) returns an empty, complete suffix.
func (j *Journal) Suffix(after uint64) (entries []Entry, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n == 0 {
		// Nothing ever journaled: complete iff the client applied nothing.
		return nil, after == 0
	}
	head := j.entries[(j.start+j.n-1)%j.depth].Seq
	tail := j.entries[j.start].Seq
	if after >= head {
		return nil, true
	}
	if after+1 < tail {
		return nil, false
	}
	for i := 0; i < j.n; i++ {
		e := j.entries[(j.start+i)%j.depth]
		if e.Seq > after {
			entries = append(entries, e)
		}
	}
	return entries, true
}
