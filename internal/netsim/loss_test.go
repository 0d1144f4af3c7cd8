package netsim

import (
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestLossModelByName(t *testing.T) {
	tr := MustTrace("t", TraceStep{0, 80}, TraceStep{3 * time.Second, 8})
	ok := []string{"", "none", "uniform:0.02", "ge:0.02,0.25,0.002,0.5", "threshold:24,0.002,0.15"}
	for _, spec := range ok {
		m, err := LossModelByName(spec, 1, tr)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
		}
		if (spec == "" || spec == "none") != (m == nil) {
			t.Errorf("%q: model = %v", spec, m)
		}
		if m != nil && m.Name() != spec {
			t.Errorf("%q: Name() = %q", spec, m.Name())
		}
	}
	bad := []string{"uniform", "uniform:1.5", "uniform:x", "ge:0.1", "ge:2,0,0,0",
		"threshold:24,0.1", "threshold:0,0.1,0.2", "bogus:1"}
	for _, spec := range bad {
		if _, err := LossModelByName(spec, 1, tr); err == nil {
			t.Errorf("%q: accepted", spec)
		}
	}
	// threshold needs a trace.
	if _, err := LossModelByName("threshold:24,0.002,0.15", 1, nil); err == nil {
		t.Error("threshold without trace accepted")
	}
}

func TestUniformLossRate(t *testing.T) {
	m := NewUniformLoss(0.1, 99)
	lost := 0
	const n = 100_000
	for seq := uint64(1); seq <= n; seq++ {
		if m.Drop(seq, 0) {
			lost++
		}
	}
	rate := float64(lost) / n
	if rate < 0.09 || rate > 0.11 {
		t.Fatalf("empirical rate %.4f, want ≈0.10", rate)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// Heavy bad state: losses should cluster far more than uniform at the
	// same average rate. Measure P(loss | previous loss) vs P(loss).
	m := NewGilbertElliott(0.02, 0.25, 0.002, 0.5, 7)
	const n = 200_000
	lost, pairs, lossAfterLoss := 0, 0, 0
	prev := false
	for seq := uint64(1); seq <= n; seq++ {
		d := m.Drop(seq, 0)
		if d {
			lost++
		}
		if prev {
			pairs++
			if d {
				lossAfterLoss++
			}
		}
		prev = d
	}
	base := float64(lost) / n
	cond := float64(lossAfterLoss) / float64(pairs)
	if base <= 0 || cond < 3*base {
		t.Fatalf("P(loss)=%.4f P(loss|loss)=%.4f: losses not bursty", base, cond)
	}
}

func TestThresholdLossFollowsTrace(t *testing.T) {
	tr := MustTrace("fade", TraceStep{0, 80}, TraceStep{time.Second, 8})
	m := NewThresholdLoss(tr, 24, 0, 0.5, 3)
	lostEarly, lostLate := 0, 0
	const n = 10_000
	for seq := uint64(1); seq <= n; seq++ {
		if m.Drop(seq, 0) {
			lostEarly++
		}
		if m.Drop(seq, 2*time.Second) {
			lostLate++
		}
	}
	if lostEarly != 0 {
		t.Fatalf("lost %d packets above the threshold at rate 0", lostEarly)
	}
	if r := float64(lostLate) / n; r < 0.45 || r > 0.55 {
		t.Fatalf("below-threshold rate %.3f, want ≈0.5", r)
	}
}

// fateFingerprint materialises the packet schedule for a fixed seed and
// hashes it. The models draw from counter-based hashes, so the fingerprint
// must be identical regardless of timing, worker counts, or -race.
func fateFingerprint(n int) uint64 {
	ge := NewGilbertElliott(0.02, 0.25, 0.002, 0.5, 1234)
	im := &Impairment{ReorderProb: 0.10, Seed: 1234}
	h := fnv.New64a()
	for seq := uint64(1); seq <= uint64(n); seq++ {
		// One byte per packet: whether the loss model eats it and, if it
		// survives, how far the impairment stage defers it.
		b := byte(1)
		if !ge.Drop(seq, 0) {
			b = byte(im.Defer(seq)) << 1
		}
		h.Write([]byte{b})
	}
	return h.Sum64()
}

// Pinned fingerprint of the first 4096 fates under seed 1234. If this test
// fails after an intentional change to the hash derivation, update the
// constant — but know that every committed loss scenario's schedule shifts
// with it.
const wantFingerprint = 0x651959ab0be3e99b

func TestPacketScheduleDeterminism(t *testing.T) {
	const n = 4096
	want := fateFingerprint(n)
	if want != wantFingerprint {
		t.Errorf("schedule fingerprint = %#x, want pinned %#x", want, wantFingerprint)
	}

	// Rebuild the same schedule from many goroutines at different
	// GOMAXPROCS settings: every rebuild must be bitwise identical.
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		results := make([]uint64, 8)
		for i := range results {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				results[slot] = fateFingerprint(n)
			}(i)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i, got := range results {
			if got != want {
				t.Fatalf("GOMAXPROCS=%d worker %d: fingerprint %#x != %#x", procs, i, got, want)
			}
		}
	}
}

// The deferred-position stream must be deterministic and bounded.
func TestImpairmentDefer(t *testing.T) {
	im := &Impairment{ReorderProb: 0.25, Seed: 5}
	seen := map[int]int{}
	for seq := uint64(1); seq <= 10_000; seq++ {
		d := im.Defer(seq)
		if d < 0 || d > maxDefer {
			t.Fatalf("seq %d: defer %d out of range", seq, d)
		}
		if d != im.Defer(seq) {
			t.Fatalf("seq %d: Defer not deterministic", seq)
		}
		seen[d]++
	}
	if seen[0] == 0 || seen[1]+seen[2]+seen[3] == 0 {
		t.Fatalf("defer distribution degenerate: %v", seen)
	}
	var nilIm *Impairment
	if nilIm.Defer(1) != 0 {
		t.Fatal("nil impairment must not defer")
	}
}
