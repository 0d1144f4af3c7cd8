package compress

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// deltaFixture builds a base set and an "after training" view of it: most
// tensors bit-identical to the base (frozen), one sparsely nudged, one
// densely rewritten — the shape of a real student checkpoint.
func deltaFixture(seed int64) (*nn.ParamSet, []*nn.Parameter) {
	rng := rand.New(rand.NewSource(seed))
	base := nn.NewParamSet()
	mk := func(name string, n int) *tensor.Tensor {
		t := tensor.New(n)
		for i := range t.Data {
			t.Data[i] = float32(rng.NormFloat64())
		}
		base.Add(name, t)
		return t
	}
	frozen := mk("frozen.w", 256)
	sparse := mk("sparse.w", 256)
	densed := mk("dense.w", 256)

	clone := func(t *tensor.Tensor) *tensor.Tensor {
		c := tensor.New(t.Shape()...)
		copy(c.Data, t.Data)
		return c
	}
	s := clone(sparse)
	for i := 0; i < 5; i++ {
		s.Data[rng.Intn(s.Len())] += float32(rng.NormFloat64())
	}
	d := clone(densed)
	for i := range d.Data {
		d.Data[i] += float32(rng.NormFloat64()) * 0.01
	}
	return base, []*nn.Parameter{
		{Name: "frozen.w", Value: clone(frozen)},
		{Name: "sparse.w", Value: s},
		{Name: "dense.w", Value: d},
	}
}

func TestDeltaRawRoundTripBitExact(t *testing.T) {
	base, params := deltaFixture(11)
	c := &Delta{Inner: Raw{}, Base: base}
	var buf bufWriter
	if err := c.Encode(&buf, params); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(params) {
		t.Fatalf("round trip lost parameters: %d vs %d", len(got), len(params))
	}
	for i, p := range params {
		if got[i].Name != p.Name {
			t.Fatalf("param %d name %q, want %q", i, got[i].Name, p.Name)
		}
		for j, v := range p.Value.Data {
			if math.Float32bits(got[i].Value.Data[j]) != math.Float32bits(v) {
				t.Fatalf("%s[%d] = %x, want %x — delta+raw must be bit-exact",
					p.Name, j, math.Float32bits(got[i].Value.Data[j]), math.Float32bits(v))
			}
		}
	}
}

// A nil base is the all-zeros base: the codec stays total and bit-exact
// under raw — the contract absolute diffs and checkpoints rely on — and,
// with each tensor taking the smaller of the plain copy and the length-coded
// distances, costs no more than nn.WriteNamed plus a header per tensor.
func TestDeltaNilBaseBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	params := randParams(rng, 4)
	for _, shape := range [][]int{{64, 32, 3, 3}, {64}, {21, 64, 1, 1}} {
		p := &nn.Parameter{Name: "sb6.c33.w", Value: tensor.New(shape...)}
		for i := range p.Value.Data {
			p.Value.Data[i] = float32(0.05 * rng.NormFloat64())
		}
		params = append(params, p)
	}
	c := &Delta{Inner: Raw{}}
	var buf bufWriter
	if err := c.Encode(&buf, params); err != nil {
		t.Fatal(err)
	}
	if raw := nn.EncodedSize(params); float64(len(buf.b)) > 1.005*float64(raw) {
		t.Fatalf("nil-base delta+raw took %d bytes, nn.WriteNamed %d", len(buf.b), raw)
	}
	got, err := c.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		for j, v := range p.Value.Data {
			if math.Float32bits(got[i].Value.Data[j]) != math.Float32bits(v) {
				t.Fatalf("%s[%d] drifted under nil-base delta+raw", p.Name, j)
			}
		}
	}
}

// Dense tensors through a lossy inner reconstruct as base + quantized
// delta, so the error bound is the int8 bound over the DELTA magnitudes —
// much tighter than quantizing the absolute values.
func TestDeltaInt8ErrorBoundedByDeltaScale(t *testing.T) {
	base, params := deltaFixture(13)
	c := &Delta{Inner: Int8{}, Base: base}
	var buf bufWriter
	if err := c.Encode(&buf, params); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		ref := base.Get(p.Name)
		var maxDelta float64
		for j, v := range p.Value.Data {
			if d := math.Abs(float64(v - ref.Value.Data[j])); d > maxDelta {
				maxDelta = d
			}
		}
		bound := maxDelta/127 + 1e-12
		for j, v := range p.Value.Data {
			if e := math.Abs(float64(got[i].Value.Data[j] - v)); e > bound {
				t.Fatalf("%s[%d] error %v exceeds delta-scale bound %v", p.Name, j, e, bound)
			}
		}
	}
}

// Pruning relative to what the receiver holds is delta+pruneNN: the largest
// deltas arrive, a dropped one leaves the base value.
func TestDeltaPrunedKeepsLargestDeltas(t *testing.T) {
	base := nn.NewParamSet()
	base.Add("w", tensor.FromSlice([]float32{1, 1, 1, 1}, 4))
	updated := []*nn.Parameter{{Name: "w", Value: tensor.FromSlice([]float32{1.001, 3, 1, -2}, 4)}}
	c := &Delta{Inner: Pruned{KeepFraction: 0.5}, Base: base}
	var buf bufWriter
	if err := c.Encode(&buf, updated); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float32{1, 3, 1, -2} {
		if got[0].Value.Data[i] != want {
			t.Fatalf("reconstructed[%d] = %v, want %v", i, got[0].Value.Data[i], want)
		}
	}
}

// The whole point: a checkpoint that mostly equals the base must shrink
// dramatically versus shipping it raw.
func TestDeltaShrinksNearBaseCheckpoint(t *testing.T) {
	base, params := deltaFixture(14)
	raw, err := EncodedBytes(Raw{}, params)
	if err != nil {
		t.Fatal(err)
	}
	d, err := EncodedBytes(&Delta{Inner: Raw{}, Base: base}, params)
	if err != nil {
		t.Fatal(err)
	}
	// 2 of 3 tensors collapse to a header byte or a handful of sparse
	// pairs; only dense.w pays full freight.
	if float64(d) > 0.5*float64(raw) {
		t.Fatalf("delta+raw (%dB) should be well under half of raw (%dB)", d, raw)
	}
}

func TestDeltaRejectsTruncatedAndCorrupt(t *testing.T) {
	base, params := deltaFixture(15)
	c := &Delta{Inner: Raw{}, Base: base}
	var buf bufWriter
	if err := c.Encode(&buf, params); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf.b); cut += 37 {
		trunc := bufWriter{b: buf.b[:cut]}
		if _, err := c.Decode(&trunc); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}
	bad := append([]byte(nil), buf.b...)
	bad[0] = 'X' // magic
	if _, err := c.Decode(&bufWriter{b: bad}); err == nil {
		t.Fatal("corrupt magic must error")
	}
}

func TestDeltaRejectsNestedInner(t *testing.T) {
	c := &Delta{Inner: &Delta{Inner: Raw{}}}
	var buf bufWriter
	if err := c.Encode(&buf, nil); err == nil {
		t.Fatal("nested delta must refuse to encode")
	}
	if _, err := (&Delta{Inner: Raw{}}).Decode(&bufWriter{}); err == nil {
		t.Fatal("empty stream must error")
	}
}

// bitPatternTensor draws n float32 bit patterns that a NormFloat64 fixture
// never produces: NaNs with payloads, both zeros, denormals, both
// infinities, extreme exponents, and plain uniform 32-bit noise.
func bitPatternTensor(rng *rand.Rand, n int) *tensor.Tensor {
	special := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00001, 0x7f800001, 0x7fffffff, // quiet/signalling NaNs with payloads
		0x00000001, 0x807fffff, // denormals
		0x00800000, 0x7f7fffff, 0xff7fffff, // smallest normal, ±MaxFloat32
	}
	t := tensor.New(n)
	for i := range t.Data {
		bits := rng.Uint32()
		if rng.Intn(3) == 0 {
			bits = special[rng.Intn(len(special))]
		}
		t.Data[i] = math.Float32frombits(bits)
	}
	return t
}

// delta+raw is bit-exact over arbitrary bit patterns — identical, sparsely
// and densely changed tensors, near and far from the base, with and
// without one — and never costs more than the raw float32 stream plus the
// stream framing and, per tensor, a mode byte, eight bytes and two bits a
// value (what fixed widths under a 2-bit tag cost at most).
func TestDeltaRawBitPatternProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := nn.NewParamSet()
		var params []*nn.Parameter
		budget := 4 + 1 + len("raw") + 4 + 4
		for k := 0; k < 6; k++ {
			n := []int{0, 1, 3, 64, 257, 1000}[rng.Intn(6)]
			name := names[k%len(names)] + string(rune('a'+k))
			ref := bitPatternTensor(rng, n)
			if k != 5 { // the last tensor has no base entry: the zero base
				base.Add(name, ref)
			}
			cur := tensor.New(n)
			copy(cur.Data, ref.Data)
			switch k % 3 {
			case 1: // sparse: a few elements replaced outright
				for j := 0; j < n/50+1 && n > 0; j++ {
					cur.Data[rng.Intn(n)] = bitPatternTensor(rng, 1).Data[0]
				}
			case 2: // dense: every element moved, by distances of every size
				for j := range cur.Data {
					step := uint32(1) << uint(rng.Intn(32))
					cur.Data[j] = math.Float32frombits(math.Float32bits(cur.Data[j]) + rng.Uint32()%step - step/2)
				}
			}
			params = append(params, &nn.Parameter{Name: name, Value: cur})
			budget += 1 + 4 + 4 + (2*n+7)/8
		}
		for _, c := range []*Delta{{Inner: Raw{}, Base: base}, {Inner: Raw{}}} {
			var buf bufWriter
			if err := c.Encode(&buf, params); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if limit := nn.EncodedSize(params) + budget; len(buf.b) > limit {
				t.Fatalf("seed %d: delta+raw took %d bytes, raw plus tags is %d", seed, len(buf.b), limit)
			}
			got, err := c.Decode(&buf)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if buf.Len() != 0 {
				t.Fatalf("seed %d: decoder left %d bytes", seed, buf.Len())
			}
			for i, p := range params {
				if got[i].Name != p.Name || got[i].Value.Len() != p.Value.Len() {
					t.Fatalf("seed %d: param %d came back as %q/%d", seed, i, got[i].Name, got[i].Value.Len())
				}
				for j, v := range p.Value.Data {
					if g := got[i].Value.Data[j]; math.Float32bits(g) != math.Float32bits(v) {
						t.Fatalf("seed %d: %s[%d] = %08x, want %08x", seed, p.Name, j, math.Float32bits(g), math.Float32bits(v))
					}
				}
			}
		}
	}
}

// A trained-looking tensor — every weight nudged by a small fraction of
// itself — must cost well under its float32 size.
func TestDeltaRawShrinksSmallUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := nn.NewParamSet()
	ref := tensor.New(4096)
	cur := tensor.New(4096)
	for i := range ref.Data {
		ref.Data[i] = float32(rng.NormFloat64())
		cur.Data[i] = ref.Data[i] * (1 + 1e-3*float32(rng.NormFloat64()))
	}
	base.Add("w", ref)
	params := []*nn.Parameter{{Name: "w", Value: cur}}
	n, err := EncodedBytes(&Delta{Inner: Raw{}, Base: base}, params)
	if err != nil {
		t.Fatal(err)
	}
	if raw := nn.EncodedSize(params); float64(n) > 0.6*float64(raw) {
		t.Fatalf("delta+raw of a 0.1%% update took %d of %d raw bytes", n, raw)
	}
}

// A running statistic never rides a lossy inner codec: under delta+int8
// and delta+pruneNN a BatchNorm mean and variance that every element of
// moved — a momentum step toward a batch whose variances span decades —
// decode bit-exact, so no quantised or pruned variance goes to zero or
// negative (1/√(var+ε) of which is NaN), while the weight beside them
// still takes the codec.
func TestDeltaLossyInnerKeepsRunningStatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := nn.NewParamSet()
	var params []*nn.Parameter
	for _, name := range []string{"sb5.c33.w", "sb5.bn.rmean", "sb5.bn.rvar"} {
		ref, cur := tensor.New(64), tensor.New(64)
		for i := range ref.Data {
			ref.Data[i] = float32(math.Exp(4 * rng.NormFloat64()))
			cur.Data[i] = 0.9*ref.Data[i] + 0.1*float32(math.Exp(4*rng.NormFloat64()))
		}
		base.Add(name, ref)
		params = append(params, &nn.Parameter{Name: name, Value: cur})
	}
	for _, inner := range []Codec{Int8{}, Pruned{KeepFraction: 0.25}} {
		t.Run(inner.Name(), func(t *testing.T) {
			c := &Delta{Inner: inner, Base: base}
			var buf bufWriter
			if err := c.Encode(&buf, params); err != nil {
				t.Fatal(err)
			}
			got, err := c.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range params {
				lossy := false
				for j, v := range p.Value.Data {
					g := got[i].Value.Data[j]
					lossy = lossy || math.Float32bits(g) != math.Float32bits(v)
					if nn.IsBNStat(p.Name) && (math.Float32bits(g) != math.Float32bits(v) || g < 0) {
						t.Fatalf("%s[%d] = %v, want %v", p.Name, j, g, v)
					}
				}
				if !nn.IsBNStat(p.Name) && !lossy {
					t.Fatal("the weight came back exact; the fixture does not exercise the codec")
				}
			}
		})
	}
}

// A delta+int8 tensor that took the dense path resolves to exactly
// base + scale·q per element, with the scale and symbols the quantizer
// chose for its deltas; the rest arrive exact. The server's View is what
// the client decodes, and that contract is what keeps the two equal.
func TestDeltaInt8ResolvesToScaleTimesQ(t *testing.T) {
	base, params := deltaFixture(17)
	c := &Delta{Inner: Int8{}, Base: base}
	var buf bufWriter
	if err := c.Encode(&buf, params); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lossy := 0
	for i, p := range params {
		ref := base.Get(p.Name).Value.Data
		want := p.Value.Data
		changed := 0
		for j, v := range want {
			if math.Float32bits(v) != math.Float32bits(ref[j]) {
				changed++
			}
		}
		if 8*changed > len(want) {
			lossy++
			delta := make([]float32, len(want))
			for j, v := range want {
				delta[j] = v - ref[j]
			}
			want = scaleTimesQ(delta)
			for j := range want {
				want[j] += ref[j]
			}
		}
		for j, w := range want {
			if g := got[i].Value.Data[j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s[%d] = %08x, want %08x", p.Name, j, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
	if lossy == 0 {
		t.Fatal("no tensor took the int8 path; the fixture does not exercise it")
	}
}

// A tensor with a NaN or ±Inf — or whose delta from the base is one — has
// no int8 symbol: under a lossy inner it rides the exact bit-pattern path,
// so the receiver holds it bit for bit, while a finite tensor beside it
// still takes the codec.
func TestDeltaLossyInnerSendsNonFiniteExact(t *testing.T) {
	nan := math.Float32frombits(0x7fc00123)
	inf := float32(math.Inf(1))
	base := nn.NewParamSet()
	var params []*nn.Parameter
	for k, edit := range []func(ref, cur []float32){
		func(ref, cur []float32) { cur[3] = nan },
		func(ref, cur []float32) { cur[5] = -inf },
		func(ref, cur []float32) { ref[7], cur[7] = -3e38, 3e38 }, // the delta overflows
		func(ref, cur []float32) { ref[9] = inf },
		func(ref, cur []float32) {}, // finite: int8 applies
	} {
		ref, cur := tensor.New(64), tensor.New(64)
		for i := range ref.Data {
			ref.Data[i] = float32(i) * 0.01
			cur.Data[i] = ref.Data[i] + float32(i%5)*1e-3 + 1e-4
		}
		edit(ref.Data, cur.Data)
		name := "w" + string(rune('a'+k))
		base.Add(name, ref)
		params = append(params, &nn.Parameter{Name: name, Value: cur})
	}
	for _, inner := range []Codec{Int8{}, Pruned{KeepFraction: 0.25}} {
		t.Run(inner.Name(), func(t *testing.T) {
			c := &Delta{Inner: inner, Base: base}
			var buf bufWriter
			if err := c.Encode(&buf, params); err != nil {
				t.Fatal(err)
			}
			got, err := c.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range params {
				exact := true
				for j, v := range p.Value.Data {
					exact = exact && math.Float32bits(got[i].Value.Data[j]) == math.Float32bits(v)
				}
				if last := i == len(params)-1; exact == last {
					t.Fatalf("%s came back exact=%v", p.Name, exact)
				}
			}
		})
	}
}
