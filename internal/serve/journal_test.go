package serve

import (
	"fmt"
	"testing"
)

func fill(j *journal, from, to uint64) {
	for s := from; s <= to; s++ {
		j.append(s, []byte(fmt.Sprintf("d%d", s)))
	}
}

func TestJournalSuffixComplete(t *testing.T) {
	j := newJournal(4)
	fill(j, 1, 3)
	if tl, n := j.tail(), j.len(); tl != 1 || n != 3 {
		t.Fatalf("tail/len %d/%d, want 1/3", tl, n)
	}
	entries, ok := j.suffix(1)
	if !ok || len(entries) != 2 {
		t.Fatalf("suffix(1) = %v entries, ok=%v", len(entries), ok)
	}
	if entries[0].seq != 2 || entries[1].seq != 3 {
		t.Fatalf("suffix order wrong: %+v", entries)
	}
	if string(entries[0].body) != "d2" {
		t.Fatalf("body %q", entries[0].body)
	}
}

// A client that is already current (after == head) gets an empty, complete
// suffix — the resume succeeds with nothing to replay.
func TestJournalSuffixAtHead(t *testing.T) {
	j := newJournal(4)
	fill(j, 1, 5) // seqs 2..5 retained
	entries, ok := j.suffix(5)
	if !ok || len(entries) != 0 {
		t.Fatalf("suffix(head) = %d entries, ok=%v; want empty complete", len(entries), ok)
	}
	// A claim past the head is still "complete" journal-wise; the owner
	// rejects it against its own head separately.
	if _, ok := j.suffix(9); !ok {
		t.Fatal("suffix past head should not report a gap")
	}
}

// The boundary client: it applied exactly tail-1, so the whole retained
// ring replays.
func TestJournalSuffixAtTailBoundary(t *testing.T) {
	j := newJournal(4)
	fill(j, 1, 6) // retained: 3,4,5,6
	if tl := j.tail(); tl != 3 {
		t.Fatalf("tail %d, want 3", tl)
	}
	entries, ok := j.suffix(2) // tail-1: everything retained replays
	if !ok || len(entries) != 4 {
		t.Fatalf("suffix(tail-1) = %d entries, ok=%v; want 4 complete", len(entries), ok)
	}
	if entries[0].seq != 3 || entries[3].seq != 6 {
		t.Fatalf("wrong window: %+v", entries)
	}
}

// Past the eviction horizon the suffix is incomplete: the caller must fall
// back to a full checkpoint.
func TestJournalSuffixPastEvictionHorizon(t *testing.T) {
	j := newJournal(4)
	fill(j, 1, 6) // retained: 3,4,5,6
	if _, ok := j.suffix(1); ok {
		t.Fatal("suffix(1) with tail 3 must report a gap")
	}
	if _, ok := j.suffix(0); ok {
		t.Fatal("suffix(0) with tail 3 must report a gap")
	}
}

func TestJournalEmpty(t *testing.T) {
	j := newJournal(2)
	if entries, ok := j.suffix(0); !ok || entries != nil {
		t.Fatalf("empty journal, fresh client: %v ok=%v", entries, ok)
	}
	if _, ok := j.suffix(3); ok {
		t.Fatal("empty journal cannot satisfy a client claiming applied diffs")
	}
	if j.tail() != 0 || j.len() != 0 {
		t.Fatal("empty journal bounds should be zero")
	}
}

func TestJournalAppendMonotonicityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing append must panic")
		}
	}()
	j := newJournal(2)
	j.append(2, nil)
	j.append(2, nil)
}
