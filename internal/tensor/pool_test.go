package tensor

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
)

// pauseGC disables the garbage collector for tests that assert buffer
// identity across Release/Lease round trips (a GC cycle may legitimately
// drop sync.Pool contents).
func pauseGC(t *testing.T) {
	t.Helper()
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
}

func TestPoolLeaseReleaseRecycles(t *testing.T) {
	pauseGC(t)
	p := NewPool()
	a := p.Lease(4, 8)
	if !ShapeEq(a.Shape(), []int{4, 8}) || a.Len() != 32 {
		t.Fatalf("lease shape %v len %d", a.Shape(), a.Len())
	}
	a.Fill(3)
	p.Release(a)
	b := p.Lease(32) // same capacity class, different shape/rank
	if b.Len() != 32 {
		t.Fatalf("release len %d", b.Len())
	}
	// Contents are unspecified after Lease, but the capacity must have been
	// recycled (same backing array). (sync.Pool drops Puts at random under
	// the race detector, so identity holds only in normal builds.)
	if !raceEnabled && &a.Data[0] != &b.Data[0] {
		t.Fatal("pool did not recycle the released buffer")
	}
}

func TestPoolOversizeFallsThrough(t *testing.T) {
	p := NewPool()
	// A shape past the largest bucket must still work (plain allocation).
	huge := []int{1<<maxPoolClass + 1}
	a := p.Lease(huge...)
	if a.Len() != huge[0] {
		t.Fatal("oversize lease wrong length")
	}
	p.Release(a) // must not panic
}

func TestWorkspaceGetZeroesAndGetDirtyRecycles(t *testing.T) {
	pauseGC(t)
	ws := NewWorkspaceOn(NewPool())
	a := ws.GetDirty(16)
	a.Fill(7)
	ws.Reset()
	b := ws.Get(16)
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("Get returned dirty data at %d: %v", i, v)
		}
	}
	ws.Reset()
	c := ws.GetDirty(16)
	if !raceEnabled && &c.Data[0] != &a.Data[0] {
		t.Fatal("workspace did not recycle through its pool")
	}
}

func TestWorkspacePutEarlyRelease(t *testing.T) {
	pauseGC(t)
	pool := NewPool()
	ws := NewWorkspaceOn(pool)
	a := ws.GetDirty(64)
	b := ws.GetDirty(64)
	if ws.Leased() != 2 {
		t.Fatalf("leased %d, want 2", ws.Leased())
	}
	ws.Put(b)
	ws.Put(a)
	if ws.Leased() != 0 {
		t.Fatalf("leased %d after Put, want 0", ws.Leased())
	}
	// Both buffers are back in the pool (identity only holds outside race
	// builds; see raceEnabled).
	c := pool.Lease(64)
	d := pool.Lease(64)
	if !raceEnabled && &c.Data[0] != &a.Data[0] && &c.Data[0] != &b.Data[0] {
		t.Fatal("Put did not return the buffer to the pool")
	}
	_ = d
}

func TestWorkspacePutForeignPanics(t *testing.T) {
	ws := NewWorkspaceOn(NewPool())
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a foreign tensor must panic")
		}
	}()
	ws.Put(New(4))
}

func TestNilWorkspaceDegradesToAllocation(t *testing.T) {
	var ws *Workspace
	a := ws.Get(3, 3)
	b := ws.GetDirty(3, 3)
	if a.Len() != 9 || b.Len() != 9 {
		t.Fatal("nil workspace lease sizes")
	}
	ws.Put(a)  // no-op
	ws.Reset() // no-op
	if ws.Leased() != 0 {
		t.Fatal("nil workspace must report zero leases")
	}
}

// TestWorkspaceConcurrentSessionsNoAliasing is the tensor-level form of the
// serve-package isolation test: N goroutines, each with a private workspace
// over the SHARED pool, run conv forward+backward passes concurrently and
// must reproduce the single-goroutine reference bitwise. Cross-workspace
// buffer aliasing (a lease escaping into another goroutine's results) would
// corrupt outputs and/or trip the race detector.
func TestWorkspaceConcurrentSessionsNoAliasing(t *testing.T) {
	const sessions = 8
	const rounds = 6

	spec := Spec(3, 3).WithStride(2)
	mkInputs := func(seed int64) (x, w, b, gy *Tensor) {
		rng := rand.New(rand.NewSource(seed))
		return randTensor(rng, 3, 16, 12), randTensor(rng, 5, 3, 3, 3),
			randTensor(rng, 5), randTensor(rng, 5, 8, 6)
	}

	// Serial reference, workspace-free.
	type ref struct{ conv, dx, dw, db *Tensor }
	refs := make([]ref, sessions)
	for s := range refs {
		x, w, b, gy := mkInputs(int64(100 + s))
		conv := Conv2D(x, w, b, spec)
		dx, dw, db := Conv2DBackwardWS(nil, x, w, gy, spec, true)
		refs[s] = ref{conv, dx, dw, db}
	}

	var wg sync.WaitGroup
	errs := make(chan string, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ws := NewWorkspace() // shared SharedPool underneath
			x, w, b, gy := mkInputs(int64(100 + s))
			for r := 0; r < rounds; r++ {
				ws.Reset()
				conv := Conv2DWS(ws, x, w, b, spec)
				dx, dw, db := Conv2DBackwardWS(ws, x, w, gy, spec, true)
				for _, pair := range []struct {
					name string
					a, b *Tensor
				}{
					{"conv", refs[s].conv, conv},
					{"dx", refs[s].dx, dx},
					{"dw", refs[s].dw, dw},
					{"db", refs[s].db, db},
				} {
					for i := range pair.a.Data {
						if pair.a.Data[i] != pair.b.Data[i] {
							errs <- pair.name
							return
						}
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Fatalf("concurrent workspace result %q diverged from serial reference — cross-session aliasing", name)
	}
}

// Leases must never surface another lease's stale contents through Get.
func TestWorkspaceNoStaleDataThroughGet(t *testing.T) {
	ws := NewWorkspaceOn(NewPool())
	poison := ws.GetDirty(128)
	poison.Fill(99)
	ws.Reset()
	for i := 0; i < 4; i++ {
		clean := ws.Get(100) // smaller shape, same class → recycled buffer
		for _, v := range clean.Data {
			if v != 0 {
				t.Fatal("stale data escaped through Workspace.Get")
			}
		}
		ws.Reset()
	}
}
