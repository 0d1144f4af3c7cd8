package compress

import (
	"bytes"
	"math"
	"math/bits"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// encodeStream is the encoders' path onto the integer stream for
// ready-made values.
func encodeStream(vals []uint32) []byte {
	var hist [33]int
	for _, z := range vals {
		hist[bits.Len32(z)]++
	}
	return newLengthCode(&hist).appendStream(nil, vals)
}

// Every payload on the integer stream comes back bit for bit: bit-pattern
// distances, on the stream alone and through delta+raw against a base and
// without one; the key-frame planes; and Int8's symbols, each of which
// decodes to exactly the scale·q the quantizer chose.
func TestStreamPayloadsRoundTrip(t *testing.T) {
	f := math.Float32frombits
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		vals []float32
	}{
		{"no elements", nil},
		{"one element", []float32{0.5}},
		{"two elements", []float32{-1, 3}},
		// NaN payloads (quiet, negative, signalling), ±0, subnormals, ±Inf.
		{"special patterns", []float32{f(0x7fc00000), f(0xffc00001), f(0x7f800001), 0, f(0x80000000), f(1), f(0x807fffff), inf, -inf}},
		{"q = ±127", []float32{-2, 2, 1, -0.5, 0, 2}},
		{"all zero", make([]float32, 64)},
		// Distances from zero of 2·0x10 … 2·0x1f: six bits each.
		{"one length", []float32{f(0x10), f(0x1f), f(0x13), f(0x1a)}},
		// −0 and negative NaNs are 32-bit distances from zero.
		{"32-bit distances", []float32{f(0x80000000), f(0xffffffff), f(0xbf800000), f(0xc0000000)}},
	}
	same := func(t *testing.T, got, want []float32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d values back, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("value %d: %08x, want %08x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name+"/stream", func(t *testing.T) {
			dist := make([]uint32, len(c.vals))
			var hist [33]int
			bitDistance(dist, &hist, c.vals, nil)
			got := make([]float32, len(dist))
			if rest, err := decodeStream(bitsOf(got), newLengthCode(&hist).appendStream(nil, dist), 32); err != nil || len(rest) != 0 {
				t.Fatalf("%v, %d bytes left over", err, len(rest))
			}
			fromDistance(got, nil)
			same(t, got, c.vals)
		})
		t.Run(c.name+"/delta+raw", func(t *testing.T) {
			p := &nn.Parameter{Name: "w", Value: tensor.FromSlice(append([]float32{}, c.vals...), len(c.vals))}
			base := nn.NewParamSet()
			ref := base.Add("w", tensor.New(len(c.vals))).Value
			for i := range ref.Data {
				ref.Data[i] = float32(i) - 0.25
			}
			for _, codec := range []*Delta{{Inner: Raw{}, Base: base}, {Inner: Raw{}}} {
				var buf bufWriter
				if err := codec.Encode(&buf, []*nn.Parameter{p}); err != nil {
					t.Fatal(err)
				}
				got, err := codec.Decode(&buf)
				if err != nil {
					t.Fatal(err)
				}
				same(t, got[0].Value.Data, c.vals)
			}
		})
		t.Run(c.name+"/plane", func(t *testing.T) {
			width := max(len(c.vals)/2, 1)
			plane := c.vals[:len(c.vals)/width*width]
			got := make([]float32, len(plane))
			enc := AppendPlane(nil, plane, nil, width)
			if rest, err := DecodePlane(got, nil, append(enc, 7), width); err != nil || !bytes.Equal(rest, []byte{7}) {
				t.Fatalf("%v, rest % x", err, rest)
			}
			same(t, got, plane)
		})
		t.Run(c.name+"/int8", func(t *testing.T) {
			if !finiteDeltas(c.vals, nil) {
				return // TestInt8RefusesNonFinite
			}
			p := &nn.Parameter{Name: "w", Value: tensor.FromSlice(c.vals, len(c.vals))}
			var buf bufWriter
			if err := (Int8{}).Encode(&buf, []*nn.Parameter{p}); err != nil {
				t.Fatal(err)
			}
			got, err := (Int8{}).Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			same(t, got[0].Value.Data, scaleTimesQ(c.vals))
		})
	}
}

// scaleTimesQ is what Int8 decodes vals to: scale·q, with the scale and
// symbols the quantizer chooses.
func scaleTimesQ(vals []float32) []float32 {
	maxAbs := float32(0)
	for _, v := range vals {
		maxAbs = max(maxAbs, abs32(v))
	}
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	out := make([]float32, len(vals))
	for i, v := range vals {
		q := math.Round(float64(v / scale))
		out[i] = float32(int8(min(max(q, -127), 127))) * scale
	}
	return out
}
