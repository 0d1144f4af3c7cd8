package serve

import (
	"fmt"
	"sync"
)

// journalEntry is one journaled student diff: its sequence number and the
// exact encoded body that was (or was about to be) sent on the wire. Bodies
// are retained as given — the producer must hand over ownership.
type journalEntry struct {
	seq  uint64
	body []byte
}

// journal is a bounded ring of the most recent sequenced student diffs of
// one session, so a reconnecting client that missed a few diffs gets exactly
// those again instead of a full checkpoint. The session appends every diff
// as it encodes it; on resume, suffix returns exactly the entries the client
// missed, or reports that the gap has been evicted and a full checkpoint is
// needed. It is safe for concurrent use (the session goroutine appends while
// a resume handler reads), and it travels with its session, parked or
// attached, between managers.
type journal struct {
	mu      sync.Mutex
	depth   int
	entries []journalEntry // ring buffer
	start   int            // index of the oldest entry
	n       int            // live entries
}

// newJournal returns a journal retaining the last depth diffs (min 1).
func newJournal(depth int) *journal {
	if depth < 1 {
		depth = 1
	}
	return &journal{depth: depth, entries: make([]journalEntry, depth)}
}

// append records one diff. Sequence numbers must be strictly increasing —
// they are produced by a single session goroutine — so a violation is a
// programming error and panics.
func (j *journal) append(seq uint64, body []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n > 0 {
		if last := j.entries[(j.start+j.n-1)%j.depth].seq; seq <= last {
			panic(fmt.Sprintf("serve: journal append seq %d not after %d", seq, last))
		}
	}
	if j.n == j.depth {
		j.entries[j.start] = journalEntry{seq: seq, body: body}
		j.start = (j.start + 1) % j.depth
		return
	}
	j.entries[(j.start+j.n)%j.depth] = journalEntry{seq: seq, body: body}
	j.n++
}

// tail returns the oldest retained sequence (0 when empty).
func (j *journal) tail() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n == 0 {
		return 0
	}
	return j.entries[j.start].seq
}

// len returns the number of retained entries.
func (j *journal) len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// suffix returns a copy of the entries with seq > after, oldest first. ok
// is false when the suffix is incomplete — the client's gap reaches past
// the eviction horizon (after+1 < tail) — in which case the caller must
// fall back to a full checkpoint. A request that is already current
// (after ≥ head) returns an empty, complete suffix.
func (j *journal) suffix(after uint64) (entries []journalEntry, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n == 0 {
		// Nothing ever journaled: complete iff the client applied nothing.
		return nil, after == 0
	}
	head := j.entries[(j.start+j.n-1)%j.depth].seq
	tail := j.entries[j.start].seq
	if after >= head {
		return nil, true
	}
	if after+1 < tail {
		return nil, false
	}
	for i := 0; i < j.n; i++ {
		e := j.entries[(j.start+i)%j.depth]
		if e.seq > after {
			entries = append(entries, e)
		}
	}
	return entries, true
}
