package teacher

import (
	"slices"
	"strconv"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/video"
)

// BatchInferrer is implemented by teachers that can label a whole batch of
// frames in one invocation. The Batcher prefers this path: one call per
// batch amortises the per-request cost of reaching the (single, serialised)
// teacher device, which is how the paper's one-GPU Mask R-CNN would be
// shared across many client sessions.
type BatchInferrer interface {
	Teacher
	InferBatch(frames []video.Frame) [][]int32
}

// maxBatch caps frames per teacher invocation.
const maxBatch = 8

// BatcherOptions attributes a Batcher's live metrics; it tunes nothing.
type BatcherOptions struct {
	// Telemetry, when non-nil, registers live queue metrics — depth gauge,
	// batch-occupancy histogram, request/batch counters — labelled
	// shard=Shard. End-of-run BatchStats are unaffected.
	Telemetry *telemetry.Registry
	// Shard is the shard attribution for the metric labels (internal/fabric
	// gives shard i index i).
	Shard int
}

// BatchStats summarises a Batcher's lifetime activity.
type BatchStats struct {
	Requests int64 // frames labelled through the Batcher
	Batches  int64 // teacher invocations
	MaxBatch int   // largest batch executed
}

// MeanBatch is the mean frames per teacher invocation.
func (s BatchStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// Add folds another batcher's stats into s and returns the sum — the
// associative merge a sharded serving tier (internal/fabric) uses to
// aggregate per-shard batchers. Counters sum; MaxBatch takes the max;
// MeanBatch stays correct because it re-derives from the summed
// numerator/denominator instead of averaging per-shard means.
func (s BatchStats) Add(o BatchStats) BatchStats {
	s.Requests += o.Requests
	s.Batches += o.Batches
	if o.MaxBatch > s.MaxBatch {
		s.MaxBatch = o.MaxBatch
	}
	return s
}

// request is one caller parked behind a busy teacher.
type request struct {
	frame video.Frame
	mask  []int32
	// done says why wake fired: true, mask is this frame's label; false,
	// this caller heads the queue and must run the next batch itself.
	done bool
	wake chan struct{} // buffered, so the waker never waits for the sleeper
}

// Batcher shares one Teacher between many sessions as a combining lock. A
// caller that finds the teacher idle labels its frame at once, on its own
// goroutine. Callers that arrive while it is busy queue in arrival order and
// sleep; when a batch ends, the caller at the head of the queue is woken to
// label everything queued behind the busy teacher (at most maxBatch frames)
// in one invocation, and wakes the rest of its batch with their masks. A
// batch is therefore exactly the backlog of one busy period: nothing waits
// for company when the teacher is idle, and no goroutine, timer or shutdown
// belongs to the Batcher. Teacher access is serialised, modelling the
// paper's single teacher GPU.
//
// Batcher itself implements Teacher, so it drops into core.Server unchanged.
type Batcher struct {
	t  Teacher
	bi BatchInferrer // non-nil when t supports the batch path

	mu    sync.Mutex
	busy  bool       // a caller is inside the teacher, or has been woken to enter it
	queue []*request // callers waiting for the teacher, oldest first
	stats BatchStats

	frames []video.Frame // InferBatch argument buffer, owned by whoever holds busy

	// Live telemetry handles; nil (no-op) when Telemetry is unset.
	tmDepth     *telemetry.Gauge
	tmOccupancy *telemetry.Histogram
	tmRequests  *telemetry.Counter
	tmBatches   *telemetry.Counter
}

// NewBatcher wraps t. It starts nothing and needs no shutdown.
func NewBatcher(t Teacher, opts BatcherOptions) *Batcher {
	b := &Batcher{t: t}
	if bi, ok := t.(BatchInferrer); ok {
		b.bi = bi
	}
	if reg := opts.Telemetry; reg != nil {
		l := telemetry.L("shard", strconv.Itoa(opts.Shard))
		b.tmDepth = reg.Gauge("shadowtutor_teacher_queue_depth", "Inference requests waiting for or inside the teacher.", l)
		b.tmOccupancy = reg.Histogram("shadowtutor_teacher_batch_size", "Frames per teacher invocation.", telemetry.SizeBuckets, l)
		b.tmRequests = reg.Counter("shadowtutor_teacher_requests_total", "Frames labelled through the batcher.", l)
		b.tmBatches = reg.Counter("shadowtutor_teacher_batches_total", "Teacher invocations.", l)
	}
	return b
}

// Name implements Teacher.
func (b *Batcher) Name() string { return "batched(" + b.t.Name() + ")" }

// RequiresLabel implements LabelRequirer by forwarding to the wrapped
// teacher.
func (b *Batcher) RequiresLabel() bool {
	if lr, ok := b.t.(LabelRequirer); ok {
		return lr.RequiresLabel()
	}
	return false
}

// Infer implements Teacher: it returns the shared teacher's mask for f,
// labelled alone if the teacher is idle and with the rest of the backlog
// otherwise. Safe for any number of concurrent callers.
func (b *Batcher) Infer(f video.Frame) []int32 {
	r := &request{frame: f}
	var batch [maxBatch]*request
	n := 1
	b.mu.Lock()
	// Counted before any runner can see the request, so the gauge never
	// reads below zero.
	b.tmDepth.Add(1)
	if !b.busy {
		b.busy = true
		b.mu.Unlock()
		batch[0] = r
	} else {
		r.wake = make(chan struct{}, 1)
		b.queue = append(b.queue, r)
		b.mu.Unlock()
		<-r.wake
		if r.done {
			return r.mask
		}
		// r heads the queue and busy is still set on its behalf: the batch
		// is what piled up behind the last one, r's own frame first.
		b.mu.Lock()
		n = copy(batch[:], b.queue)
		// Delete shifts the rest down and zeroes the tail: no frame stays pinned.
		b.queue = slices.Delete(b.queue, 0, n)
		b.mu.Unlock()
	}

	b.label(batch[:n])
	for _, q := range batch[1:n] {
		q.done = true
		q.wake <- struct{}{}
	}
	b.tmDepth.Add(float64(-n))
	b.tmOccupancy.Observe(float64(n))
	b.tmRequests.Add(int64(n))
	b.tmBatches.Inc()

	// Pass the teacher on: to the caller now heading the queue if there is
	// one (busy stays set, so nobody overtakes it), else back to idle.
	var next *request
	b.mu.Lock()
	b.stats.Requests += int64(n)
	b.stats.Batches++
	if n > b.stats.MaxBatch {
		b.stats.MaxBatch = n
	}
	if len(b.queue) > 0 {
		next = b.queue[0]
	} else {
		b.busy = false
	}
	b.mu.Unlock()
	if next != nil {
		next.wake <- struct{}{}
	}
	return r.mask
}

// label runs one teacher invocation over batch and stores each frame's
// mask in its request. The caller holds busy.
func (b *Batcher) label(batch []*request) {
	if b.bi == nil {
		for _, q := range batch {
			q.mask = b.t.Infer(q.frame)
		}
		return
	}
	b.frames = b.frames[:0]
	for _, q := range batch {
		b.frames = append(b.frames, q.frame)
	}
	masks := b.bi.InferBatch(b.frames)
	clear(b.frames) // drop frame-image references; keep only capacity
	for i, q := range batch {
		q.mask = masks[i]
	}
}

// Stats returns a snapshot of the Batcher's activity.
func (b *Batcher) Stats() BatchStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
