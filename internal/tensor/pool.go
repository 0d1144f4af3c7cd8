package tensor

import (
	"fmt"
	"sync"
)

// This file implements the zero-allocation scratch-memory subsystem behind
// the hot path: a concurrency-safe Pool of recycled tensors bucketed by
// capacity, and a single-goroutine Workspace that leases tensors from a pool
// and releases them in bulk. The distill loop and student inference lease
// every temporary (im2col buffers, GEMM outputs, activation values, gradient
// accumulators) for one pass and hand it back as it returns: no session
// holds scratch between passes, and allocations per frame approach zero.
//
// Ownership rules (see ARCHITECTURE.md "Memory model"):
//   - A tensor leased from a Workspace is owned by that workspace's owner
//     until Workspace.Reset (bulk) or Workspace.Put (early, LIFO-friendly)
//     returns it to the pool.
//   - A tensor handed to Pool.Release / Workspace reclamation must not be
//     used again by anyone holding a stale reference; the race-detector
//     tests in pool_test.go and internal/serve guard this.
//   - Pools are safe for concurrent use; Workspaces are not. One workspace
//     per goroutine (in practice: per forward/backward pass context).

const (
	// minPoolClass is the smallest bucketed capacity (2^6 = 64 floats);
	// tinier tensors are cheaper to allocate than to recycle.
	minPoolClass = 6
	// maxPoolClass caps bucketed capacity at 2^24 floats (64 MiB); larger
	// leases fall through to plain allocation.
	maxPoolClass = 24
)

// Pool is a concurrency-safe free list of tensors bucketed by capacity class
// (powers of two). The zero value is not usable; construct with NewPool or
// use the package-level SharedPool.
type Pool struct {
	classes [maxPoolClass + 1]sync.Pool
}

// SharedPool is the process-wide default pool. Workspaces created with
// NewWorkspace draw from it, so scratch memory released by one session is
// reused by the next without growing the heap.
var SharedPool = NewPool()

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// classFor returns the smallest class whose capacity holds n elements, or
// -1 when n is outside the pooled range.
func classFor(n int) int {
	if n > 1<<maxPoolClass {
		return -1
	}
	c := minPoolClass
	for 1<<c < n {
		c++
	}
	return c
}

// releaseClassFor returns the largest class whose capacity is ≤ cap, or -1
// when cap is below the smallest bucket. Using the floor keeps the invariant
// that every tensor stored in class c has capacity ≥ 1<<c even for tensors
// that were not allocated by the pool.
func releaseClassFor(cap int) int {
	if cap < 1<<minPoolClass {
		return -1
	}
	c := minPoolClass
	for c < maxPoolClass && 1<<(c+1) <= cap {
		c++
	}
	return c
}

// Lease returns a tensor of the given shape with UNSPECIFIED contents,
// drawing from the pool when a large-enough recycled buffer exists. Callers
// that need zeroed memory must clear it (or use Workspace.Get).
func (p *Pool) Lease(shape ...int) *Tensor {
	n := NumElems(shape)
	c := classFor(n)
	if c < 0 {
		return New(shape...)
	}
	var t *Tensor
	if v := p.classes[c].Get(); v != nil {
		t = v.(*Tensor)
		t.Data = t.Data[:n]
	} else {
		// Shape capacity 4 covers every rank in the system, so recycled
		// tensors never reallocate their shape slice when re-leased at a
		// different rank.
		t = &Tensor{Data: make([]float32, n, 1<<c), shape: make([]int, 0, 4)}
	}
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Release returns t to the pool for reuse. The caller must not touch t (or
// any view sharing its data) afterwards. nil and tiny tensors are dropped.
func (p *Pool) Release(t *Tensor) {
	if t == nil {
		return
	}
	c := releaseClassFor(cap(t.Data))
	if c < 0 {
		return
	}
	t.Data = t.Data[:cap(t.Data)]
	p.classes[c].Put(t)
}

// Workspace leases scratch tensors from a Pool on behalf of one goroutine
// and releases them in bulk. It is NOT safe for concurrent use: every
// forward/backward pass context (autodiff.Tape, nn.ForwardCtx) owns its own
// workspace, which is what keeps concurrent serve sessions from ever
// aliasing each other's buffers.
type Workspace struct {
	pool    *Pool
	leased  []*Tensor
	backend Backend // nil means vec
}

// SetBackend pins the compute backend used by kernels dispatched through
// this workspace (Conv2DWS and the autodiff tape's matmuls): the seam the
// tests run the Reference oracle through. nil reverts to vec. It returns w
// so construction can chain.
func (w *Workspace) SetBackend(b Backend) *Workspace {
	if w != nil {
		w.backend = b
	}
	return w
}

// Backend returns the workspace's compute backend: vec for nil or
// unconfigured workspaces, so workspace-threaded kernel code needs no nil
// checks.
func (w *Workspace) Backend() Backend {
	if w == nil || w.backend == nil {
		return vecBackend{}
	}
	return w.backend
}

// NewWorkspace returns a workspace over SharedPool.
func NewWorkspace() *Workspace { return NewWorkspaceOn(SharedPool) }

// NewWorkspaceOn returns a workspace over the given pool.
func NewWorkspaceOn(p *Pool) *Workspace {
	if p == nil {
		p = SharedPool
	}
	return &Workspace{pool: p}
}

// Get leases a ZEROED tensor of the given shape. A nil workspace degrades to
// a plain allocation, so workspace-threaded code needs no nil checks.
func (w *Workspace) Get(shape ...int) *Tensor {
	if w == nil {
		return New(shape...)
	}
	t := w.lease(shape)
	clear(t.Data)
	return t
}

// GetDirty leases a tensor with UNSPECIFIED contents, for callers that
// overwrite every element (GEMM outputs, im2col with explicit padding
// writes, elementwise maps). A nil workspace degrades to a plain (zeroed)
// allocation.
func (w *Workspace) GetDirty(shape ...int) *Tensor {
	if w == nil {
		return New(shape...)
	}
	return w.lease(shape)
}

func (w *Workspace) lease(shape []int) *Tensor {
	t := w.pool.Lease(shape...)
	w.leased = append(w.leased, t)
	return t
}

// Put returns one leased tensor to the pool before the bulk Reset, for
// short-lived scratch (im2col buffers) that would otherwise pin memory for
// the rest of the pass. t must be the workspace's own lease; recently leased
// tensors are found in O(1). Putting a foreign tensor panics.
func (w *Workspace) Put(t *Tensor) {
	if w == nil || t == nil {
		return
	}
	for i := len(w.leased) - 1; i >= 0; i-- {
		if w.leased[i] == t {
			w.leased = append(w.leased[:i], w.leased[i+1:]...)
			w.pool.Release(t)
			return
		}
	}
	panic(fmt.Sprintf("tensor: Workspace.Put of tensor %v not leased from this workspace", t.Shape()))
}

// Reset releases every outstanding lease back to the pool. All tensors
// obtained from this workspace since the previous Reset become invalid.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	for i, t := range w.leased {
		w.pool.Release(t)
		w.leased[i] = nil
	}
	w.leased = w.leased[:0]
}

// Leased reports the number of outstanding leases (for tests and leak
// diagnostics).
func (w *Workspace) Leased() int {
	if w == nil {
		return 0
	}
	return len(w.leased)
}
