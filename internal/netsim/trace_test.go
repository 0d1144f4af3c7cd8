package netsim

import (
	"io"
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
	if got := tr.Initial(); got != 80 {
		t.Errorf("Initial() = %v, want 80", got)
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

// TestThrottledConnSetBandwidth verifies a mid-transfer rate change takes
// effect: a write that would take minutes at the initial trickle completes
// promptly once the link is re-rated. Directional with generous margins so
// it stays robust on loaded CI machines.
func TestThrottledConnSetBandwidth(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	tc := NewThrottledConn(c1, Mbps(0.008), nil) // 1 kB/s: 64 kB ≈ 64s
	defer tc.Close()
	go io.Copy(io.Discard, c2)

	done := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		buf := make([]byte, 64*1024)
		if _, err := tc.Write(buf); err != nil {
			t.Errorf("throttled write: %v", err)
		}
		done <- time.Since(start)
	}()
	time.Sleep(150 * time.Millisecond)
	tc.SetBandwidth(800) // 100 MB/s: the rest is effectively instant

	select {
	case elapsed := <-done:
		if elapsed > 20*time.Second {
			t.Errorf("write took %v after re-rate; old-rate sleep was not repriced", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("write still blocked 30s after SetBandwidth; rate change ignored")
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
	tc := NewTracedConn(c1, tr, nil)
	defer tc.Close()
	go io.Copy(io.Discard, c2)

	start := time.Now()
	if _, err := tc.Write(make([]byte, 128*1024)); err != nil {
		t.Fatalf("traced write: %v", err)
	}
	elapsed := time.Since(start)
	// At 1 kB/s this is ~128s; with the step-up it is bounded by the step
	// time plus sleep-slice latency. 20s leaves huge CI headroom.
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
