package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecording hammers one counter, gauge, and histogram from
// 8 goroutines and checks the final totals are exact — the atomics must
// not lose updates under -race.
func TestConcurrentRecording(t *testing.T) {
	reg := New()
	c := reg.Counter("hammer_total", "")
	g := reg.Gauge("hammer_gauge", "")
	h := reg.Histogram("hammer_hist", "", []float64{10, 100, 1000})
	tr := reg.Trace()

	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 2000))
				if i%100 == 0 {
					tr.Record(Event{Kind: EvResume, Session: uint64(w), Seq: uint64(i)})
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
	hs := h.snapshot()
	if hs.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", hs.Count, workers*perWorker)
	}
	// Sum of 0..1999 over 5 repeats per worker: 8 * 5 * (1999*2000/2).
	wantSum := float64(workers * 5 * 1999 * 2000 / 2)
	if hs.Sum != wantSum {
		t.Errorf("histogram sum = %v, want %v", hs.Sum, wantSum)
	}
	// Buckets: per 2000-cycle, 11 values <= 10, 90 in (10,100], 900 in
	// (100,1000], 999 above.
	wantCounts := []uint64{workers * 5 * 11, workers * 5 * 90, workers * 5 * 900, workers * 5 * 999}
	for i, want := range wantCounts {
		if hs.Counts[i] != want {
			t.Errorf("bucket[%d] = %d, want %d", i, hs.Counts[i], want)
		}
	}
	if got := tr.Total(); got != workers*perWorker/100 {
		t.Errorf("trace total = %d, want %d", got, workers*perWorker/100)
	}
}

// TestConcurrentRegistrationAndSnapshot races late registration (sessions
// register series mid-run) against snapshots (a scraper) — the
// handle install must be published under the same lock Snapshot reads
// under.
func TestConcurrentRegistrationAndSnapshot(t *testing.T) {
	reg := New()
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := L("shard", string(rune('0'+w)))
				reg.Counter("late_total", "", l).Inc()
				reg.Gauge("late_gauge", "", l).Set(float64(i))
				reg.Histogram("late_hist", "", []float64{1, 10}, l).Observe(float64(i))
				v := float64(i)
				reg.GaugeFunc("late_fn", "", func() float64 { return v }, l)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-snapDone
	if got := reg.Counter("late_total", "", L("shard", "0")).Value(); got != 200 {
		t.Errorf("late counter = %d, want 200", got)
	}
}

// TestRecordPathAllocs proves the zero-allocation contract for every
// record-path operation, including the nil-handle no-ops.
func TestRecordPathAllocs(t *testing.T) {
	reg := New()
	c := reg.Counter("allocs_total", "")
	g := reg.Gauge("allocs_gauge", "")
	h := reg.Histogram("allocs_hist", "", DurationBuckets)
	tr := NewTraceRing(64)
	ev := Event{Time: time.Unix(0, 0), Kind: EvShed, Session: 7, Shard: 1}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Add", func() { g.Add(-0.5) }},
		{"Histogram.Observe", func() { h.Observe(0.0042) }},
		{"TraceRing.Record", func() { tr.Record(ev) }},
		{"nil Counter.Inc", func() { (*Counter)(nil).Inc() }},
		{"nil Gauge.Set", func() { (*Gauge)(nil).Set(1) }},
		{"nil Histogram.Observe", func() { (*Histogram)(nil).Observe(1) }},
		{"nil TraceRing.Record", func() { (*TraceRing)(nil).Record(ev) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(100, tc.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
		}
	}
}

func TestNilRegistry(t *testing.T) {
	var reg *Registry
	// Every accessor must hand out usable no-op handles.
	reg.Counter("x", "").Inc()
	reg.Gauge("x", "").Set(1)
	reg.Histogram("x", "", DurationBuckets).Observe(1)
	reg.GaugeFunc("x", "", func() float64 { return 1 })
	reg.Trace().Record(Event{Kind: EvDrain})
	if reg.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition: err=%v body=%q", err, sb.String())
	}
}

func TestRegistrationIdempotentAndTyped(t *testing.T) {
	reg := New()
	a := reg.Counter("dup_total", "h", L("shard", "0"))
	b := reg.Counter("dup_total", "h", L("shard", "0"))
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	other := reg.Counter("dup_total", "h", L("shard", "1"))
	if a == other {
		t.Error("different labels must return distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	reg.Gauge("dup_total", "h")
}

func TestPrometheusExposition(t *testing.T) {
	reg := New()
	reg.Counter("st_frames_total", "Frames processed.", L("shard", "0")).Add(42)
	reg.Gauge("st_active", "Active sessions.").Set(3)
	reg.GaugeFunc("st_loss", "Loss rate.", func() float64 { return 0.25 }, L("dir", "down"))
	h := reg.Histogram("st_lat_seconds", "Latency.", []float64{0.5, 2}, L("shard", "0"))
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(1)
	h.Observe(4)
	// Label values with characters needing escape.
	reg.Counter("st_esc_total", "", L("path", `a"b\c`+"\n")).Inc()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# HELP st_frames_total Frames processed.\n",
		"# TYPE st_frames_total counter\n",
		`st_frames_total{shard="0"} 42` + "\n",
		"# TYPE st_active gauge\n",
		"st_active 3\n",
		"# TYPE st_loss gauge\n",
		`st_loss{dir="down"} 0.25` + "\n",
		"# TYPE st_lat_seconds histogram\n",
		`st_lat_seconds_bucket{shard="0",le="0.5"} 2` + "\n",
		`st_lat_seconds_bucket{shard="0",le="2"} 3` + "\n",
		`st_lat_seconds_bucket{shard="0",le="+Inf"} 4` + "\n",
		`st_lat_seconds_sum{shard="0"} 5.75` + "\n",
		`st_lat_seconds_count{shard="0"} 4` + "\n",
		`st_esc_total{path="a\"b\\c\n"} 1` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q in:\n%s", want, body)
		}
	}
	// Families must be emitted in sorted order for scrape determinism.
	if strings.Index(body, "st_active") > strings.Index(body, "st_frames_total") {
		t.Error("families not sorted by name")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	reg := New()
	h := reg.Histogram("edges", "", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(math.Nextafter(1, 2))
	h.Observe(2)
	h.Observe(3)
	hs := h.snapshot()
	want := []uint64{1, 2, 1}
	for i := range want {
		if hs.Counts[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, hs.Counts[i], want[i])
		}
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Seq: uint64(i)})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event[%d].Seq = %d, want %d (oldest-first)", i, e.Seq, want)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
}
