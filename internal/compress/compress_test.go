package compress

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func randParams(rng *rand.Rand, n int) []*nn.Parameter {
	out := make([]*nn.Parameter, n)
	for i := range out {
		t := tensor.New(2+rng.Intn(4), 2+rng.Intn(4))
		for j := range t.Data {
			t.Data[j] = float32(rng.NormFloat64())
		}
		out[i] = &nn.Parameter{Name: names[i%len(names)], Value: t}
	}
	return out
}

var names = []string{"sb5.c33.w", "sb6.c11.b", "out3.w", "out1.b"}

func TestRawRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := randParams(rng, 3)
	e, err := MaxAbsError(Raw{}, params)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("raw codec must be lossless, error %v", e)
	}
}

func TestInt8RoundTripBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	params := randParams(rng, 4)
	e, err := MaxAbsError(Int8{}, params)
	if err != nil {
		t.Fatal(err)
	}
	// Quantization error per tensor is at most scale/2 = maxAbs/254.
	var maxAbs float64
	for _, p := range params {
		for _, v := range p.Value.Data {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if e > maxAbs/127 {
		t.Fatalf("int8 error %v exceeds scale bound %v", e, maxAbs/127)
	}
	if e == 0 {
		t.Fatal("int8 on random floats should be lossy")
	}
}

func TestInt8ShrinksEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := tensor.New(32, 32)
	for i := range big.Data {
		big.Data[i] = float32(rng.NormFloat64())
	}
	params := []*nn.Parameter{{Name: "w", Value: big}}
	raw, err := EncodedBytes(Raw{}, params)
	if err != nil {
		t.Fatal(err)
	}
	q, err := EncodedBytes(Int8{}, params)
	if err != nil {
		t.Fatal(err)
	}
	if float64(q) > 0.45*float64(raw) {
		t.Fatalf("int8 (%dB) should be ≲4× smaller than raw (%dB)", q, raw)
	}
}

func TestInt8ZeroTensor(t *testing.T) {
	params := []*nn.Parameter{{Name: "z", Value: tensor.New(4)}}
	e, err := MaxAbsError(Int8{}, params)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("all-zero tensor must survive exactly, error %v", e)
	}
}

func TestPrunedKeepsLargestEntries(t *testing.T) {
	v := tensor.FromSlice([]float32{0.1, -5, 0.2, 3, 0.05, -0.4}, 6)
	params := []*nn.Parameter{{Name: "p", Value: v}}
	var buf bufWriter
	if err := (Pruned{KeepFraction: 0.34}).Encode(&buf, params); err != nil {
		t.Fatal(err)
	}
	got, err := (Pruned{KeepFraction: 0.34}).Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(0.34×6) = 3 entries kept: -5, 3, -0.4; the rest zero.
	want := []float32{0, -5, 0, 3, 0, -0.4}
	for i, w := range want {
		if got[0].Value.Data[i] != w {
			t.Fatalf("pruned[%d] = %v, want %v (full: %v)", i, got[0].Value.Data[i], w, got[0].Value.Data)
		}
	}
}

func TestPrunedKeepAllIsLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	params := randParams(rng, 3)
	e, err := MaxAbsError(Pruned{KeepFraction: 1}, params)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("keep-all pruning must be lossless, error %v", e)
	}
}

func TestPrunedRejectsBadFraction(t *testing.T) {
	var buf bufWriter
	if err := (Pruned{KeepFraction: 0}).Encode(&buf, nil); err == nil {
		t.Fatal("zero keep fraction must error")
	}
	if err := (Pruned{KeepFraction: 1.5}).Encode(&buf, nil); err == nil {
		t.Fatal("fraction > 1 must error")
	}
}

func TestPrunedShrinksEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := tensor.New(40, 40)
	for i := range big.Data {
		big.Data[i] = float32(rng.NormFloat64())
	}
	params := []*nn.Parameter{{Name: "w", Value: big}}
	raw, _ := EncodedBytes(Raw{}, params)
	pruned, err := EncodedBytes(Pruned{KeepFraction: 0.1}, params)
	if err != nil {
		t.Fatal(err)
	}
	// 10% kept at 8 bytes/entry vs 4 bytes/entry dense → ≈ 20% of raw.
	if float64(pruned) > 0.3*float64(raw) {
		t.Fatalf("10%% pruning (%dB) should be ≪ raw (%dB)", pruned, raw)
	}
}

func TestDecodersRejectTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	params := randParams(rng, 2)
	for _, c := range []Codec{Int8{}, Pruned{KeepFraction: 0.5}} {
		var buf bufWriter
		if err := c.Encode(&buf, params); err != nil {
			t.Fatal(err)
		}
		trunc := bufWriter{b: buf.b[:len(buf.b)-3]}
		if _, err := c.Decode(&trunc); err == nil {
			t.Fatalf("%s: truncated stream must error", c.Name())
		}
	}
}

func TestCodecNames(t *testing.T) {
	if (Raw{}).Name() != "raw" || (Int8{}).Name() != "int8" {
		t.Fatal("codec names")
	}
	if (Pruned{KeepFraction: 0.25}).Name() != "prune25" {
		t.Fatalf("pruned name %q", (Pruned{KeepFraction: 0.25}).Name())
	}
	if (&Delta{Inner: Int8{}}).Name() != "delta+int8" {
		t.Fatalf("delta name %q", (&Delta{Inner: Int8{}}).Name())
	}
}

// Every registered codec's Name must resolve back to an equivalent codec
// through ByName — scenario specs and wire self-identification depend on
// the round trip (Pruned.Name used to emit an unparsable "prune25%").
func TestCodecNameRoundTripsThroughByName(t *testing.T) {
	codecs := []Codec{
		Raw{},
		Int8{},
		Pruned{KeepFraction: 0.25},
		Pruned{KeepFraction: 0.1},
		Pruned{KeepFraction: 1},
		&Delta{Inner: Raw{}},
		&Delta{Inner: Int8{}},
		&Delta{Inner: Pruned{KeepFraction: 0.25}},
	}
	for _, c := range codecs {
		got, ok := ByName(c.Name())
		if !ok {
			t.Fatalf("ByName(%q) did not resolve", c.Name())
		}
		if got.Name() != c.Name() {
			t.Fatalf("ByName(%q).Name() = %q", c.Name(), got.Name())
		}
	}
	// "bf16" named a codec that only the deleted handoff envelope used.
	for _, bad := range []string{"prune0", "prune101", "prune25%", "prune25x", "delta+", "delta+delta+raw", "delta+nope", "bf16", "delta+bf16"} {
		if _, ok := ByName(bad); ok {
			t.Fatalf("ByName(%q) must not resolve", bad)
		}
	}
}

// Property: int8 round trip error is bounded by the per-tensor scale for
// arbitrary payloads.
func TestQuickInt8ErrorBound(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			f64 := float64(v)
			if math.IsNaN(f64) || math.IsInf(f64, 0) {
				return true // quantization of non-finite values is unspecified
			}
		}
		params := []*nn.Parameter{{Name: "w", Value: tensor.FromSlice(vals, len(vals))}}
		e, err := MaxAbsError(Int8{}, params)
		if err != nil {
			return false
		}
		var maxAbs float64
		for _, v := range vals {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		return e <= maxAbs/127+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Property: pruning with keep fraction k retains exactly ceil(k·n) entries.
func TestQuickPrunedCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
		}
		k := 0.05 + rng.Float64()*0.9
		params := []*nn.Parameter{{Name: "w", Value: tensor.FromSlice(vals, n)}}
		var buf bufWriter
		if err := (Pruned{KeepFraction: k}).Encode(&buf, params); err != nil {
			return false
		}
		got, err := (Pruned{KeepFraction: k}).Decode(&buf)
		if err != nil {
			return false
		}
		nonzero := 0
		for _, v := range got[0].Value.Data {
			if v != 0 {
				nonzero++
			}
		}
		// Kept entries may themselves be zero-valued, so nonzero ≤ kept.
		return nonzero <= int(math.Ceil(k*float64(n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// A NaN has no int8 symbol (int8 of it is implementation-defined), and one
// ±Inf makes the scale infinite and zeroes the rest of its tensor: Int8
// refuses both.
func TestInt8RefusesNonFinite(t *testing.T) {
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		p := &nn.Parameter{Name: "w", Value: tensor.FromSlice([]float32{0.5, v, -1}, 3)}
		if err := (Int8{}).Encode(io.Discard, []*nn.Parameter{p}); err == nil {
			t.Fatalf("int8 encoded %v", v)
		}
	}
}
