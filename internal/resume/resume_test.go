package resume

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-protected manual clock for deterministic TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestStorePutTake(t *testing.T) {
	s := NewStore(Options{TTL: time.Minute})
	defer s.Close()
	if err := s.Put(&Session{ID: 7, Epoch: 2, LastSeq: 5, State: "state"}); err != nil {
		t.Fatal(err)
	}
	if !s.Has(7) || s.Has(8) {
		t.Fatal("Has is wrong")
	}
	if _, err := s.Take(8, 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown id: %v", err)
	}
	if _, err := s.Take(7, 1); !errors.Is(err, ErrEpoch) {
		t.Fatalf("wrong epoch: %v", err)
	}
	sess, err := s.Take(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sess.State != "state" || sess.LastSeq != 5 {
		t.Fatalf("wrong session back: %+v", sess)
	}
	if _, err := s.Take(7, 2); !errors.Is(err, ErrUnknown) {
		t.Fatal("taken session must be gone")
	}
	if s.Len() != 0 {
		t.Fatalf("len %d", s.Len())
	}
}

// A session parked with an AltEpoch (an interrupted resume: the bumped
// epoch may never have reached the client) is takable under either value,
// but nothing else.
func TestStoreTakeAltEpoch(t *testing.T) {
	s := NewStore(Options{TTL: time.Minute})
	defer s.Close()
	s.Put(&Session{ID: 3, Epoch: 2, AltEpoch: 1})
	if _, err := s.Take(3, 5); !errors.Is(err, ErrEpoch) {
		t.Fatalf("unrelated epoch: %v", err)
	}
	if _, err := s.Take(3, 1); err != nil {
		t.Fatalf("alt epoch must be accepted: %v", err)
	}
	// Without AltEpoch, only the exact epoch passes (zero is never a
	// wildcard).
	s.Put(&Session{ID: 4, Epoch: 2})
	if _, err := s.Take(4, 0); !errors.Is(err, ErrEpoch) {
		t.Fatalf("zero epoch must not match: %v", err)
	}
}

// Re-parking a session with a pre-set DetachedAt (a rejected resume probe)
// must not refresh its eviction deadline.
func TestStorePutPreservesDetachedAt(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := NewStore(Options{TTL: time.Minute, Now: clk.Now})
	defer s.Close()
	s.Put(&Session{ID: 1, Epoch: 1})
	clk.Advance(45 * time.Second)
	sess, err := s.Take(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(sess) // re-park, DetachedAt already stamped 45s ago
	clk.Advance(30 * time.Second)
	if n := s.Sweep(); n != 1 {
		t.Fatalf("re-parked session must keep its original deadline; swept %d", n)
	}
}

func TestStoreTTLEviction(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var mu sync.Mutex
	var evicted []uint64
	s := NewStore(Options{
		TTL: time.Minute,
		Now: clk.Now,
		OnEvict: func(sess *Session) {
			mu.Lock()
			evicted = append(evicted, sess.ID)
			mu.Unlock()
		},
	})
	defer s.Close()
	s.Put(&Session{ID: 1, Epoch: 1})
	clk.Advance(45 * time.Second)
	s.Put(&Session{ID: 2, Epoch: 1})
	clk.Advance(30 * time.Second) // session 1 now 75s old, session 2 30s old
	if n := s.Sweep(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	mu.Lock()
	got := append([]uint64(nil), evicted...)
	mu.Unlock()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("evicted %v, want [1]", got)
	}
	if !s.Has(2) || s.Has(1) {
		t.Fatal("wrong survivor")
	}
	if s.Evicted() != 1 {
		t.Fatalf("evicted counter = %d, want 1", s.Evicted())
	}
}

func TestStoreCapacityEvictsOldest(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var evicted []uint64
	s := NewStore(Options{
		TTL:         time.Minute,
		MaxSessions: 2,
		Now:         clk.Now,
		OnEvict:     func(sess *Session) { evicted = append(evicted, sess.ID) },
	})
	defer s.Close()
	s.Put(&Session{ID: 1, Epoch: 1})
	clk.Advance(time.Second)
	s.Put(&Session{ID: 2, Epoch: 1})
	clk.Advance(time.Second)
	s.Put(&Session{ID: 3, Epoch: 1})
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
	if s.Len() != 2 || !s.Has(2) || !s.Has(3) {
		t.Fatal("capacity eviction kept the wrong sessions")
	}
}

func TestStoreReplaceSameID(t *testing.T) {
	var evicted int
	s := NewStore(Options{TTL: time.Minute, OnEvict: func(*Session) { evicted++ }})
	defer s.Close()
	s.Put(&Session{ID: 4, Epoch: 1})
	s.Put(&Session{ID: 4, Epoch: 2})
	if evicted != 1 {
		t.Fatalf("replacing a parked ID should evict the old one, got %d", evicted)
	}
	sess, err := s.Take(4, 2)
	if err != nil || sess.Epoch != 2 {
		t.Fatalf("take: %v %+v", err, sess)
	}
}

func TestStoreCloseEvictsAll(t *testing.T) {
	var evicted int
	s := NewStore(Options{TTL: time.Minute, OnEvict: func(*Session) { evicted++ }})
	s.Put(&Session{ID: 1, Epoch: 1})
	s.Put(&Session{ID: 2, Epoch: 1})
	s.Close()
	if evicted != 2 {
		t.Fatalf("close evicted %d, want 2", evicted)
	}
	if err := s.Put(&Session{ID: 3, Epoch: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := s.Take(1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("take after close: %v", err)
	}
	s.Close() // idempotent
}

// The reaper runs without a fake clock too: a short-TTL store empties on
// its own.
func TestStoreReaperRuns(t *testing.T) {
	s := NewStore(Options{TTL: 60 * time.Millisecond, SweepEvery: 20 * time.Millisecond})
	defer s.Close()
	s.Put(&Session{ID: 1, Epoch: 1})
	deadline := time.Now().Add(5 * time.Second)
	for s.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("reaper never evicted the expired session")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
