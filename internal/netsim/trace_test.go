package netsim

import (
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"
)

func mustTestTrace(t *testing.T, steps ...TraceStep) *Trace {
	t.Helper()
	tr, err := NewTrace("test", steps...)
	if err != nil {
		t.Fatalf("NewTrace: %v", err)
	}
	return tr
}

func TestTraceValidate(t *testing.T) {
	cases := []struct {
		name  string
		steps []TraceStep
	}{
		{"empty", nil},
		{"nonzero start", []TraceStep{{At: time.Second, Bandwidth: 80}}},
		{"non-increasing", []TraceStep{{0, 80}, {time.Second, 40}, {time.Second, 20}}},
		{"zero bandwidth", []TraceStep{{0, 0}}},
		{"negative bandwidth", []TraceStep{{0, 80}, {time.Second, -8}}},
	}
	for _, c := range cases {
		if _, err := NewTrace(c.name, c.steps...); err == nil {
			t.Errorf("%s: want validation error, got nil", c.name)
		}
	}
	if _, err := NewTrace("ok", TraceStep{0, 90}, TraceStep{time.Second, 8}); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// TestTraceAt covers bandwidth lookup around step changes mid-stream.
func TestTraceAt(t *testing.T) {
	tr := mustTestTrace(t,
		TraceStep{0, 80},
		TraceStep{time.Second, 8},
		TraceStep{2 * time.Second, 40},
	)
	cases := []struct {
		at   time.Duration
		want Mbps
	}{
		{-time.Second, 80}, // before the trace clamps to the initial rate
		{0, 80},
		{500 * time.Millisecond, 80},
		{time.Second, 8}, // boundary: the new rate takes effect at its At
		{1500 * time.Millisecond, 8},
		{2 * time.Second, 40},
		{time.Hour, 40}, // last step holds forever
	}
	for _, c := range cases {
		if got := tr.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

// TestTraceTransferTimeAcrossRateChange pins the exact integration of a
// transfer that straddles a rate change: bytes moved before the step at the
// old rate, the remainder at the new one.
func TestTraceTransferTimeAcrossRateChange(t *testing.T) {
	// 8 Mbps = 1e6 B/s for the first second, then 80 Mbps = 1e7 B/s.
	tr := mustTestTrace(t, TraceStep{0, 8}, TraceStep{time.Second, 80})

	// Start at 0.5s with 1.5e6 bytes: 0.5s moves 5e5 bytes at 1e6 B/s,
	// the remaining 1e6 bytes take 0.1s at 1e7 B/s → 0.6s total.
	got := tr.TransferTime(500*time.Millisecond, 1_500_000)
	want := 600 * time.Millisecond
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("TransferTime across change = %v, want %v", got, want)
	}

	// Entirely inside the first segment: 2e5 bytes from t=0 → 0.2s.
	got = tr.TransferTime(0, 200_000)
	want = 200 * time.Millisecond
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("TransferTime inside segment = %v, want %v", got, want)
	}

	// Starting after the last step uses the final rate only.
	got = tr.TransferTime(5*time.Second, 1_000_000)
	want = 100 * time.Millisecond
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("TransferTime after last step = %v, want %v", got, want)
	}
}

// TestTraceTransferTimeMatchesLink checks that a constant trace accounts
// transfers identically to the fixed-bandwidth Link.
func TestTraceTransferTimeMatchesLink(t *testing.T) {
	tr := mustTestTrace(t, TraceStep{0, 80})
	link := Link{Bandwidth: 80, RTTBase: 5 * time.Millisecond}
	for _, size := range []int{1, 32 * 1024, HDFrameBytes} {
		want := link.TransferTime(size)
		got := link.RTTBase + tr.TransferTime(0, size)
		if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("size %d: traced %v != fixed %v", size, got, want)
		}
	}
}

// randomTrace draws a 1–6 step trace with rates between 0.5 and 100 Mbps
// and steps 1 ms – 2 s apart.
func randomTrace(rng *rand.Rand) *Trace {
	steps := make([]TraceStep, 1+rng.Intn(6))
	var at time.Duration
	for i := range steps {
		steps[i] = TraceStep{At: at, Bandwidth: Mbps(0.5 + rng.Float64()*99.5)}
		at += time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Second)))
	}
	return MustTrace("random", steps...)
}

// Property: Capacity inverts TransferTime — over the time n bytes take from
// age a the link carries n bytes, to within a byte — and is additive over a
// split interval. This is the whole contract the token bucket leans on: what
// it accrues between visits and how long it sleeps a debt off agree.
func TestCapacityInvertsTransferTime(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		tr := randomTrace(rng)
		a := time.Duration(rng.Int63n(int64(8 * time.Second)))
		n := rng.Intn(4_000_000)
		d := tr.TransferTime(a, n)
		if got := tr.Capacity(a, a+d); math.Abs(got-float64(n)) > 1 {
			t.Fatalf("trace %v: Capacity(%v, +%v) = %.3f, want %d", tr.steps, a, d, got, n)
		}
		mid := a + time.Duration(rng.Int63n(int64(d)+1))
		whole, split := tr.Capacity(a, a+d), tr.Capacity(a, mid)+tr.Capacity(mid, a+d)
		if math.Abs(whole-split) > 1e-6*(1+whole) {
			t.Fatalf("trace %v: Capacity(%v, %v) = %v but split at %v sums to %v", tr.steps, a, a+d, whole, mid, split)
		}
	}
	tr := mustTestTrace(t, TraceStep{0, 8}, TraceStep{time.Second, 80})
	if got := tr.Capacity(2*time.Second, time.Second); got != 0 {
		t.Errorf("Capacity over an empty interval = %v, want 0", got)
	}
	if got, want := tr.Capacity(-time.Second, 2*time.Second), 1e6+1e7; got != want {
		t.Errorf("Capacity from a negative age = %v, want %v", got, want)
	}
}

// TestTracedConnFollowsTrace drives a two-step trace through a real conn:
// the first chunk crawls at the initial rate, and once the trace steps up
// the remainder flows orders of magnitude faster.
func TestTracedConnFollowsTrace(t *testing.T) {
	tr := mustTestTrace(t,
		TraceStep{0, Mbps(0.008)},                    // 1 kB/s
		TraceStep{200 * time.Millisecond, Mbps(800)}, // then 100 MB/s
	)
	c1, c2 := net.Pipe()
	defer c2.Close()
	tc := NewThrottledConn(c1, tr)
	defer tc.Close()
	go io.Copy(io.Discard, c2)

	start := time.Now()
	if _, err := tc.Write(make([]byte, 128*1024)); err != nil {
		t.Fatalf("traced write: %v", err)
	}
	elapsed := time.Since(start)
	// At 1 kB/s this is ~128s; with the step-up it is bounded by the step
	// time plus the tail at 100 MB/s. 20s leaves huge CI headroom.
	if elapsed > 20*time.Second {
		t.Errorf("traced conn took %v; trace step-up not applied", elapsed)
	}
}

func TestHDScale(t *testing.T) {
	if got := HDScale(0, 100); got != 0 {
		t.Errorf("HDScale(0) = %v", got)
	}
	if got := HDScale(100, 0); got != 0 {
		t.Errorf("HDScale with zero frame bytes = %v, want 0", got)
	}
	// Two local key frames' worth of bytes scale to two HD key frames.
	local := 98_309
	if got, want := HDScale(int64(2*local), local), float64(2*HDFrameBytes); got != want {
		t.Errorf("HDScale = %v, want %v", got, want)
	}
}
