package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
)

// Seed corpora are real encodings, so the fuzzers start from the valid
// grammar and mutate outward — the same strategy as the transport decoder
// fuzzers. Every decoder must return an error or a structurally valid
// parameter list; panics and giant hostile-header allocations are the bugs
// being hunted (the pre-hardening header reader accepted any shape product).

func seedBytes(t interface{ Fatal(args ...any) }, c Codec) []byte {
	rng := rand.New(rand.NewSource(99))
	params := randParams(rng, 3)
	var buf bytes.Buffer
	if err := c.Encode(&buf, params); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkDecoded(t *testing.T, params []*nn.Parameter) {
	t.Helper()
	for _, p := range params {
		if p == nil || p.Value == nil {
			t.Fatal("decoder returned nil parameter without error")
		}
		if p.Value.Len() > 1<<28 {
			t.Fatalf("decoder accepted implausible tensor of %d elements", p.Value.Len())
		}
	}
}

func FuzzInt8Decode(f *testing.F) {
	f.Add(seedBytes(f, Int8{}))
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		params, err := (Int8{}).Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkDecoded(t, params)
	})
}

func FuzzPrunedDecode(f *testing.F) {
	f.Add(seedBytes(f, Pruned{KeepFraction: 0.5}))
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		params, err := (Pruned{KeepFraction: 0.5}).Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkDecoded(t, params)
	})
}

func FuzzDeltaDecode(f *testing.F) {
	f.Add(seedBytes(f, &Delta{Inner: Raw{}}))
	f.Add(seedBytes(f, &Delta{Inner: Int8{}}))
	retired := seedBytes(f, &Delta{Inner: Int8{}})
	copy(retired[5:], "bf16") // as long as "int8": a well-formed DLT2 stream naming the deleted codec
	f.Add(retired)
	f.Add([]byte("DLT2"))
	f.Add(seedBytes(f, &Delta{Inner: Raw{}, Base: nn.CloneNamed(randParams(rand.New(rand.NewSource(98)), 3))}))
	old := seedBytes(f, &Delta{Inner: Raw{}})
	copy(old, "DLT1") // the layout whose dense-exact mode carried absolute values
	f.Add(old)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode twice — stream-resolved inner codec, with and without a
		// base — and require determinism of the accept/reject verdict.
		params, err := (&Delta{Inner: Raw{}}).Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte("DLT1")) {
			t.Fatal("a DLT1 stream must be rejected")
		}
		if bytes.HasPrefix(data, []byte("DLT2\x04bf16")) {
			t.Fatal("a stream naming the bf16 inner must be rejected")
		}
		checkDecoded(t, params)
		base := nn.NewParamSet()
		for _, p := range params {
			if base.Get(p.Name) == nil { // streams may repeat names
				base.Add(p.Name, p.Value)
			}
		}
		if _, err := (&Delta{Inner: Raw{}, Base: base}).Decode(bytes.NewReader(data)); err != nil {
			t.Fatalf("stream accepted without base must decode with one: %v", err)
		}
	})
}

// packBits is the encoder's modeBits path over ready-made distances.
func packBits(dist []uint32, hist *[33]int) ([]byte, [4]uint8) {
	widths, payloadBits := bitWidths(hist)
	return appendBits(nil, dist, widths, (2*len(dist)+payloadBits+7)/8), widths
}

// FuzzBitDeltaDecode hammers the bit-pattern coder's decoder directly:
// whatever the widths and packed bytes, it returns an error or fills
// exactly the values asked for — and what it accepts re-encodes to
// something that decodes to the same bits.
func FuzzBitDeltaDecode(f *testing.F) {
	dist := []uint32{0, 1, 2, 700, 1 << 20, 1<<32 - 1}
	var hist [33]int
	cur := make([]float32, len(dist))
	for i, z := range dist {
		cur[i] = math.Float32frombits(z)
	}
	bitDistance(dist, &hist, cur, nil)
	packed, widths := packBits(dist, &hist)
	f.Add(uint16(len(dist)), widths[0], widths[1], widths[2], widths[3], packed)
	f.Add(uint16(len(dist)+1), widths[0], widths[1], widths[2], widths[3], packed)   // one value short
	f.Add(uint16(len(dist)), widths[0], widths[1], widths[2], widths[3], packed[:3]) // payload shorter than its tags claim
	f.Add(uint16(2), uint8(0), uint8(8), uint8(33), uint8(32), []byte{0xff, 0xff})   // width past 32
	f.Fuzz(func(t *testing.T, n uint16, w0, w1, w2, w3 uint8, packed []byte) {
		base := make([]float32, n)
		for i := range base {
			base[i] = float32(i) - 7.5
		}
		out := make([]float32, n)
		if err := decodeBits(out, packed, [4]uint8{w0, w1, w2, w3}, base); err != nil {
			return
		}
		dist := make([]uint32, n)
		var hist [33]int
		bitDistance(dist, &hist, out, base)
		repacked, widths := packBits(dist, &hist)
		again := make([]float32, n)
		if err := decodeBits(again, repacked, widths, base); err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		for i := range out {
			if math.Float32bits(again[i]) != math.Float32bits(out[i]) {
				t.Fatalf("value %d: %08x after re-encode, %08x before", i, math.Float32bits(again[i]), math.Float32bits(out[i]))
			}
		}
	})
}

// FuzzDecodePlane hammers the image-plane decoder: whatever the bytes, it
// returns an error or fills the plane from exactly the bytes its header
// claims — and what it accepts re-encodes to something that decodes to the
// same bits.
func FuzzDecodePlane(f *testing.F) {
	plane := make([]float32, 5*7)
	for i := range plane {
		plane[i] = float32(i%7)/7 + float32(i/7)/5
	}
	plane[3], plane[4], plane[9] = float32(math.NaN()), float32(math.Inf(-1)), math.Float32frombits(0x80000001)
	enc := AppendPlane(nil, plane, 7)
	f.Add(uint8(7), uint8(5), enc)
	f.Add(uint8(7), uint8(5), append(bytes.Clone(enc), 1, 2)) // the next section's bytes
	f.Add(uint8(1), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0}) // an empty plane
	wide := bytes.Clone(enc)
	wide[3] = 33
	short := bytes.Clone(enc)
	binary.LittleEndian.PutUint32(short[4:], 8) // under 2 bits a pixel
	mustReject := [][]byte{wide, short, enc[:len(enc)-1]}
	for _, b := range mustReject {
		f.Add(uint8(7), uint8(5), b)
	}
	f.Add(uint8(7), uint8(6), enc) // a row more than the payload holds
	f.Fuzz(func(t *testing.T, width, height uint8, data []byte) {
		if width == 0 {
			return
		}
		out := make([]float32, int(width)*int(height))
		rest, err := DecodePlane(out, data, int(width))
		if err != nil {
			return
		}
		if width == 7 && height == 5 && slices.ContainsFunc(mustReject, func(b []byte) bool { return bytes.Equal(b, data) }) {
			t.Fatalf("malformed plane accepted: % x", data[:8])
		}
		if used := len(data) - len(rest); used != 8+int(binary.LittleEndian.Uint32(data[4:])) {
			t.Fatalf("decoder consumed %d bytes of a plane claiming %d", used, binary.LittleEndian.Uint32(data[4:]))
		}
		again := make([]float32, len(out))
		if rest, err := DecodePlane(again, AppendPlane(nil, out, int(width)), int(width)); err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded plane: %v, %d bytes left over", err, len(rest))
		}
		for i := range out {
			if math.Float32bits(again[i]) != math.Float32bits(out[i]) {
				t.Fatalf("pixel %d: %08x after re-encode, %08x before", i, math.Float32bits(again[i]), math.Float32bits(out[i]))
			}
		}
	})
}
