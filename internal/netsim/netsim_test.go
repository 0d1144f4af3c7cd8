package netsim

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMbpsConversion(t *testing.T) {
	if bps := Mbps(80).BytesPerSecond(); bps != 10e6 {
		t.Fatalf("80 Mbps = %v B/s, want 1e7", bps)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	l := Link{Bandwidth: 8, RTTBase: 0} // 1 MB/s
	if d := l.TransferTime(1_000_000); math.Abs(d.Seconds()-1) > 1e-9 {
		t.Fatalf("1MB at 8Mbps = %v, want 1s", d)
	}
	if l.TransferTime(2_000_000) <= l.TransferTime(1_000_000) {
		t.Fatal("larger transfers must take longer")
	}
}

func TestTransferTimeIncludesRTT(t *testing.T) {
	l := Link{Bandwidth: 8, RTTBase: 100 * time.Millisecond}
	if d := l.TransferTime(0); d != 100*time.Millisecond {
		t.Fatalf("zero-byte transfer = %v, want RTT", d)
	}
}

func TestTransferTimeZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Link{}.TransferTime(10)
}

func TestAccountantTotals(t *testing.T) {
	var a Accountant
	a.AddToServer(100)
	a.AddToClient(50)
	a.AddToServer(1)
	up, down := a.Totals()
	if up != 101 || down != 50 {
		t.Fatalf("totals = %d/%d", up, down)
	}
}

func TestAccountantConcurrent(t *testing.T) {
	var a Accountant
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				a.AddToServer(1)
			}
		}()
	}
	wg.Wait()
	if up, _ := a.Totals(); up != 800 {
		t.Fatalf("concurrent totals = %d", up)
	}
}

func TestTrafficMbps(t *testing.T) {
	// 1e6 bytes in 1s = 8 Mbps.
	if got := TrafficMbps(1_000_000, time.Second); math.Abs(got-8) > 1e-9 {
		t.Fatalf("TrafficMbps = %v", got)
	}
	if TrafficMbps(100, 0) != 0 {
		t.Fatal("zero elapsed must yield 0")
	}
}

func TestMB(t *testing.T) {
	if MB(1_000_000) != 1 {
		t.Fatalf("MB(1e6) = %v", MB(1_000_000))
	}
	// The paper's Table 4 frame size must render exactly.
	if MB(HDFrameBytes) != 2.637 {
		t.Fatalf("MB(HDFrameBytes) = %v, want 2.637", MB(HDFrameBytes))
	}
}

// Property: transfer time is monotone in size and antitone in bandwidth.
func TestQuickTransferMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(1_000_000)
		l1 := Link{Bandwidth: Mbps(1 + rng.Float64()*99)}
		l2 := Link{Bandwidth: l1.Bandwidth * 2}
		if l1.TransferTime(size) < l2.TransferTime(size) {
			return false
		}
		return l1.TransferTime(size) <= l1.TransferTime(size+1000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestThrottledConnLimitsRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// 8 Mbps = 1 MB/s; moving 200 KB beyond the 32 KB burst should take
	// roughly 170ms+.
	ta := NewThrottledConn(a, ConstantTrace(8))
	payload := bytes.Repeat([]byte{0xAB}, 200*1024)
	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		if _, err := ta.Write(payload); err != nil {
			t.Error(err)
		}
		done <- time.Since(start)
	}()
	got, err := io.ReadAll(io.LimitReader(b, int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := <-done
	if len(got) != len(payload) {
		t.Fatalf("read %d of %d", len(got), len(payload))
	}
	if elapsed < 120*time.Millisecond {
		t.Fatalf("200KB at 8Mbps finished in %v; throttle ineffective", elapsed)
	}
}

// The read path is throttled like the write path: past the burst, bytes
// arrive no faster than the link carries them.
func TestThrottledConnReadPath(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tb := NewThrottledConn(b, ConstantTrace(8)) // 1 MB/s
	payload := bytes.Repeat([]byte{0xCD}, 132*1024)
	go a.Write(payload)
	start := time.Now()
	got, err := io.ReadAll(io.LimitReader(tb, int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes, corrupted or short of %d", len(got), len(payload))
	}
	// 100 KB beyond the 32 KB burst is ≥ 100 ms at 1 MB/s.
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("132KB at 8Mbps read in %v; read throttle ineffective", elapsed)
	}
}
