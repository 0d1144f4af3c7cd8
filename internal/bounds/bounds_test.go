package bounds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// paperInputs reproduces §5.3: t_si=143ms, t_sd=13ms, t_ti=44ms,
// t_net=303ms, strides 8/64, MAX_UPDATES 8. s_net = 2.637MB + 0.395MB.
func paperInputs() Inputs {
	return Inputs{
		TSI:        143 * time.Millisecond,
		TSD:        13 * time.Millisecond,
		TTI:        44 * time.Millisecond,
		TNet:       303 * time.Millisecond,
		SNet:       2_637_000 + 395_000,
		MinStride:  8,
		MaxStride:  64,
		MaxUpdates: 8,
	}
}

func TestValidate(t *testing.T) {
	in := paperInputs()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := in
	bad.TSI = 0
	if bad.Validate() == nil {
		t.Fatal("zero t_si must fail")
	}
	bad = in
	bad.MaxStride = 2
	if bad.Validate() == nil {
		t.Fatal("inverted strides must fail")
	}
	bad = in
	bad.MaxUpdates = -1
	if bad.Validate() == nil {
		t.Fatal("negative MAX_UPDATES must fail")
	}
	bad = in
	bad.SNet = -5
	if bad.Validate() == nil {
		t.Fatal("negative s_net must fail")
	}
}

// §6.2 reports traffic bounds of 2.53 and 21.2 Mbps for this configuration.
func TestPaperTrafficBounds(t *testing.T) {
	lo, hi := paperInputs().TrafficBoundsMbps()
	if math.Abs(lo-2.53) > 0.15 {
		t.Fatalf("traffic lower bound = %.3f Mbps, paper reports 2.53", lo)
	}
	if math.Abs(hi-21.2) > 1.2 {
		t.Fatalf("traffic upper bound = %.3f Mbps, paper reports 21.2", hi)
	}
}

// §5.3 reports a maximum throughput of 6.99 FPS and picks MAX_UPDATES=8 as
// the largest value keeping the lower bound above 5 FPS.
func TestPaperThroughputBounds(t *testing.T) {
	in := paperInputs()
	hi := in.ThroughputUpper()
	if math.Abs(hi-6.99) > 0.05 {
		t.Fatalf("throughput upper bound = %.3f FPS, paper reports 6.99", hi)
	}
	lo := in.ThroughputLower()
	if lo < 5 {
		t.Fatalf("throughput lower bound = %.3f FPS, §5.3 requires ≥ 5", lo)
	}
	mu, ok := in.MaxUpdatesFor(5, 64)
	if !ok || mu != 8 {
		t.Fatalf("MaxUpdatesFor(5) = %d (ok=%v), paper picks 8", mu, ok)
	}
}

func TestBoundsOrdering(t *testing.T) {
	in := paperInputs()
	if in.TrafficLower() >= in.TrafficUpper() {
		t.Fatal("traffic bounds inverted")
	}
	if in.ThroughputLower() >= in.ThroughputUpper() {
		t.Fatal("throughput bounds inverted")
	}
}

// Property: for any sane parameters the lower bounds never exceed the upper
// bounds, and throughput bounds respond monotonically to MAX_UPDATES.
func TestQuickBoundsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := Inputs{
			TSI:        time.Duration(1+rng.Intn(500)) * time.Millisecond,
			TSD:        time.Duration(1+rng.Intn(100)) * time.Millisecond,
			TTI:        time.Duration(1+rng.Intn(200)) * time.Millisecond,
			TNet:       time.Duration(1+rng.Intn(2000)) * time.Millisecond,
			SNet:       1 + rng.Intn(10_000_000),
			MinStride:  1 + rng.Intn(16),
			MaxUpdates: rng.Intn(32),
		}
		in.MaxStride = in.MinStride + rng.Intn(128)
		if err := in.Validate(); err != nil {
			return false
		}
		if in.TrafficLower() > in.TrafficUpper() {
			return false
		}
		if in.ThroughputLower() > in.ThroughputUpper() {
			return false
		}
		// More MAX_UPDATES can only slow the worst case.
		more := in
		more.MaxUpdates++
		return more.ThroughputLower() <= in.ThroughputLower()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxUpdatesFor returns a value whose lower bound clears the
// target while +1 does not (or the limit was hit).
func TestQuickMaxUpdatesForIsMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := paperInputs()
		in.TSD = time.Duration(5+rng.Intn(50)) * time.Millisecond
		target := 3 + rng.Float64()*3
		const limit = 64
		mu, ok := in.MaxUpdatesFor(target, limit)
		if !ok {
			in.MaxUpdates = 0
			return in.ThroughputLower() < target
		}
		in.MaxUpdates = mu
		if in.ThroughputLower() < target {
			return false
		}
		if mu < limit {
			in.MaxUpdates = mu + 1
			if in.ThroughputLower() >= target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
