package teacher

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/video"
)

// gateCall is one teacher invocation as the gate teacher saw it.
type gateCall struct {
	gid    uint64 // goroutine the invocation ran on
	frames []int  // Frame.Index of every frame in it, in order
}

// gateTeacher labels frame i with the one-pixel mask {i}, so a mask
// delivered to the wrong caller is visible. With entered set, every
// invocation reports itself there and then blocks until the test sends on
// release; with entered nil it runs free. It checks on every invocation
// that the Batcher serialises it and that the depth gauge already counts
// the frames in flight. It does NOT implement BatchInferrer; gateBatchTeacher
// adds that.
type gateTeacher struct {
	entered chan gateCall
	release chan struct{}

	depth    *telemetry.Gauge // the Batcher's gauge, when the test wired one
	inFlight atomic.Int32
	problems atomic.Int32 // overlapping invocations or under-counted depth
}

func newGateTeacher(gated bool) *gateTeacher {
	g := &gateTeacher{}
	if gated {
		g.entered = make(chan gateCall)
		g.release = make(chan struct{})
	}
	return g
}

func (g *gateTeacher) Name() string { return "gate" }

func (g *gateTeacher) Infer(f video.Frame) []int32 {
	return g.invoke([]video.Frame{f})[0]
}

func (g *gateTeacher) invoke(frames []video.Frame) [][]int32 {
	if g.inFlight.Add(1) != 1 {
		g.problems.Add(1)
	}
	if g.depth != nil && g.depth.Value() < float64(len(frames)) {
		g.problems.Add(1)
	}
	call := gateCall{gid: goid()}
	masks := make([][]int32, len(frames))
	for i, f := range frames {
		call.frames = append(call.frames, f.Index)
		masks[i] = []int32{int32(f.Index)}
	}
	if g.entered != nil {
		g.entered <- call
		<-g.release
	} else {
		runtime.Gosched() // give other callers a chance to pile up
	}
	g.inFlight.Add(-1)
	return masks
}

type gateBatchTeacher struct{ *gateTeacher }

func (g gateBatchTeacher) InferBatch(frames []video.Frame) [][]int32 { return g.invoke(frames) }

// gateVariants runs fn against a Batcher over a gate teacher without and
// with the BatchInferrer path. The Batcher's depth gauge is wired into the
// teacher's per-invocation check.
func gateVariants(t *testing.T, gated bool, fn func(t *testing.T, b *Batcher, g *gateTeacher, batched bool)) {
	for _, batched := range []bool{false, true} {
		name := "Infer"
		if batched {
			name = "InferBatch"
		}
		t.Run(name, func(t *testing.T) {
			g := newGateTeacher(gated)
			var tt Teacher = g
			if batched {
				tt = gateBatchTeacher{g}
			}
			b := NewBatcher(tt, BatcherOptions{Telemetry: telemetry.New()})
			g.depth = b.tmDepth
			fn(t, b, g, batched)
			if n := g.problems.Load(); n != 0 {
				t.Errorf("%d invocations overlapped another or ran with the depth gauge below their batch size", n)
			}
			if d := b.tmDepth.Value(); d != 0 {
				t.Errorf("depth gauge %v at quiescence, want 0", d)
			}
		})
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, _ := strconv.ParseUint(strings.Fields(string(buf[:n]))[1], 10, 64)
	return id
}

// waitQueued returns once exactly n callers are parked behind the teacher.
func waitQueued(b *Batcher, n int) {
	for {
		b.mu.Lock()
		l := len(b.queue)
		b.mu.Unlock()
		if l == n {
			return
		}
		runtime.Gosched()
	}
}

func testFrame(t *testing.T, seed int64) video.Frame {
	t.Helper()
	g, err := video.NewGenerator(video.CategoryConfig(
		video.Category{Camera: video.Fixed, Scenery: video.People}, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g.Next()
}

func TestBatcherDeliversCorrectMasks(t *testing.T) {
	frame := testFrame(t, 5)
	oracle := NewOracle(9)
	want := NewOracle(9).Infer(frame) // same seed, first call → same mask

	b := NewBatcher(oracle, BatcherOptions{})
	got := b.Infer(frame)
	if len(got) != len(want) {
		t.Fatalf("mask length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("mask[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if st := b.Stats(); st.Requests != 1 || st.Batches != 1 {
		t.Fatalf("stats %+v after one request", st)
	}
}

// NewBatcher owns no goroutine, and a frame that finds the teacher idle is
// labelled at once, alone, on the caller's goroutine.
func TestBatcherIdleInferIsOneCallOfOne(t *testing.T) {
	gateVariants(t, true, func(t *testing.T, b *Batcher, g *gateTeacher, _ bool) {
		before := runtime.NumGoroutine()
		NewBatcher(g, BatcherOptions{Telemetry: telemetry.New()})
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("NewBatcher started %d goroutines", after-before)
		}

		var caller uint64
		done := make(chan []int32)
		go func() {
			caller = goid()
			done <- b.Infer(video.Frame{Index: 7})
		}()
		call := <-g.entered
		if d := b.tmDepth.Value(); d != 1 {
			t.Errorf("depth gauge %v with one frame inside the teacher, want 1", d)
		}
		g.release <- struct{}{}
		if mask := <-done; len(mask) != 1 || mask[0] != 7 {
			t.Errorf("mask %v, want [7]", mask)
		}
		if len(call.frames) != 1 || call.frames[0] != 7 || call.gid != caller {
			t.Errorf("teacher saw %+v, want frame 7 alone on goroutine %d", call, caller)
		}
		if st := b.Stats(); st != (BatchStats{Requests: 1, Batches: 1, MaxBatch: 1}) {
			t.Errorf("stats %+v after one idle request", st)
		}
	})
}

// With one call held inside the teacher, N further callers form exactly
// ⌈N/8⌉ batches in arrival order, each run by the caller whose frame heads
// it, and every caller gets its own frame's mask.
func TestBatcherBatchIsTheBusyPeriodBacklog(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 20} {
		t.Run("N="+strconv.Itoa(n), func(t *testing.T) {
			gateVariants(t, true, func(t *testing.T, b *Batcher, g *gateTeacher, batched bool) {
				gids := make([]uint64, n+1)
				var wg sync.WaitGroup
				call := func(i int) {
					defer wg.Done()
					gids[i] = goid()
					if mask := b.Infer(video.Frame{Index: i}); len(mask) != 1 || mask[0] != int32(i) {
						t.Errorf("caller %d got mask %v", i, mask)
					}
				}
				wg.Add(1)
				go call(0)
				calls := []gateCall{<-g.entered} // frame 0 is now held inside the teacher
				for i := 1; i <= n; i++ {
					wg.Add(1)
					go call(i)
					waitQueued(b, i) // arrival order is caller order
				}
				if d := b.tmDepth.Value(); d != float64(n+1) {
					t.Errorf("depth gauge %v with %d frames waiting or inside, want %d", d, n+1, n+1)
				}
				for seen := 1; ; {
					g.release <- struct{}{}
					if seen == n+1 {
						break
					}
					c := <-g.entered
					calls = append(calls, c)
					seen += len(c.frames)
				}
				wg.Wait()

				// Frames reach the teacher in arrival order, and frame i ≥ 1
				// rides in the batch headed by frame ((i-1)/8)*8 + 1.
				next := 0
				for _, c := range calls {
					for _, f := range c.frames {
						if f != next {
							t.Fatalf("teacher saw frame %d where arrival order has %d (calls %+v)", f, next, calls)
						}
						next++
						head := 0
						if f > 0 {
							head = (f-1)/maxBatch*maxBatch + 1
						}
						if c.gid != gids[head] {
							t.Errorf("frame %d was labelled on goroutine %d, want its batch head %d's goroutine %d", f, c.gid, head, gids[head])
						}
					}
					if batched && c.frames[0] > 0 {
						if want := min(maxBatch, n+1-c.frames[0]); len(c.frames) != want {
							t.Errorf("batch headed by frame %d has %d frames, want %d", c.frames[0], len(c.frames), want)
						}
					}
				}
				want := BatchStats{Requests: int64(n + 1), Batches: int64(1 + (n+maxBatch-1)/maxBatch), MaxBatch: min(n, maxBatch)}
				if st := b.Stats(); st != want {
					t.Errorf("stats %+v, want %+v", st, want)
				}
			})
		})
	}
}

// 32 free-running callers each send distinct frames and must get their own
// masks back, while a scraper watches the depth gauge.
func TestBatcherConcurrentCallersCoalesce(t *testing.T) {
	gateVariants(t, false, func(t *testing.T, b *Batcher, g *gateTeacher, _ bool) {
		const callers, rounds = 32, 40
		var negative atomic.Bool
		stop := make(chan struct{})
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if b.tmDepth.Value() < 0 {
					negative.Store(true)
				}
				runtime.Gosched()
			}
		}()
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					id := c*rounds + r
					if mask := b.Infer(video.Frame{Index: id}); len(mask) != 1 || mask[0] != int32(id) {
						t.Errorf("caller %d round %d got mask %v, want [%d]", c, r, mask, id)
					}
				}
			}(c)
		}
		wg.Wait()
		close(stop)
		<-scraped

		if negative.Load() {
			t.Error("depth gauge read below zero")
		}
		st := b.Stats()
		if st.Requests != callers*rounds {
			t.Errorf("served %d requests, want %d", st.Requests, callers*rounds)
		}
		if st.Batches < 1 || st.Batches > st.Requests || st.MaxBatch > maxBatch {
			t.Errorf("implausible stats %+v", st)
		}
	})
}
