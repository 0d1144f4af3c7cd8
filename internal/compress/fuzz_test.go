package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
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
	copy(retired[5:], "bf16") // as long as "int8": a well-formed DLT3 stream naming the deleted codec
	f.Add(retired)
	f.Add([]byte("DLT3"))
	f.Add(seedBytes(f, &Delta{Inner: Raw{}, Base: nn.CloneNamed(randParams(rand.New(rand.NewSource(98)), 3))}))
	old := seedBytes(f, &Delta{Inner: Raw{}})
	copy(old, "DLT1") // the layout whose dense-exact mode carried absolute values
	f.Add(old)
	v2 := seedBytes(f, &Delta{Inner: Int8{}})
	copy(v2, "DLT2") // fixed-width tagged distances and a byte an int8 symbol
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode twice — stream-resolved inner codec, with and without a
		// base — and require determinism of the accept/reject verdict.
		params, err := (&Delta{Inner: Raw{}}).Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte("DLT1")) || bytes.HasPrefix(data, []byte("DLT2")) {
			t.Fatalf("a %s stream must be rejected", data[:4])
		}
		if bytes.HasPrefix(data, []byte("DLT3\x04bf16")) {
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

// FuzzStreamDecode hammers the integer stream's decoder on its own, under
// both alphabets (int8's lengths 0…8 and the distances' 0…32): whatever the
// count and bytes, it returns an error or fills exactly the values asked
// for from exactly the bytes its length claims — none longer than the
// alphabet allows — and what it accepts re-encodes to a stream that decodes
// to the same values.
func FuzzStreamDecode(f *testing.F) {
	vals := []uint32{0, 1, 2, 3, 700, 1 << 20, 1<<32 - 1, 5, 5, 6}
	enc := encodeStream(vals)
	f.Add(uint16(len(vals)), false, enc)
	f.Add(uint16(len(vals)), true, enc)                          // a value past int8's alphabet
	f.Add(uint16(len(vals)+1), false, enc)                       // one value short
	f.Add(uint16(len(vals)), false, enc[:len(enc)-1])            // raw bits past the payload
	f.Add(uint16(len(vals)), false, append(bytes.Clone(enc), 0)) // the next stream's byte
	f.Add(uint16(9000), false, enc)                              // a count larger than the input
	f.Add(uint16(0), false, []byte{1, 0})                        // an empty stream
	for _, table := range mustRejectTables() {
		f.Add(uint16(4), false, table)
	}
	f.Fuzz(func(t *testing.T, n uint16, int8Alphabet bool, data []byte) {
		maxLen := 32
		if int8Alphabet {
			maxLen = 8
		}
		out := make([]uint32, n)
		rest, err := decodeStream(out, data, maxLen)
		if err != nil {
			return
		}
		for _, table := range mustRejectTables() {
			if n == 4 && bytes.Equal(table, data) {
				t.Fatalf("malformed table accepted: % x", data)
			}
		}
		for _, z := range out {
			if bits.Len32(z) > maxLen {
				t.Fatalf("value %#x decoded under a %d-bit alphabet", z, maxLen)
			}
		}
		claimed, k := binary.Uvarint(data)
		if used := len(data) - len(rest); used != k+int(claimed) {
			t.Fatalf("decoder consumed %d bytes of a stream claiming %d", used, k+int(claimed))
		}
		again := make([]uint32, n)
		if rest, err := decodeStream(again, encodeStream(out), maxLen); err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded stream: %v, %d bytes left over", err, len(rest))
		}
		if !slices.Equal(again, out) {
			t.Fatal("re-encoded stream decodes to other values")
		}
	})
}

// mustRejectTables are four-value streams whose code-length table no
// encoder writes.
func mustRejectTables() [][]byte {
	// stream packs fields LSB-first behind a one-byte length.
	stream := func(fields ...[2]uint64) []byte {
		var acc uint64
		var at uint
		for _, fl := range fields {
			acc |= fl[0] << at
			at += uint(fl[1])
		}
		payload := binary.LittleEndian.AppendUint64(nil, acc)[:(at+7)/8]
		return append([]byte{byte(len(payload))}, payload...)
	}
	return [][]byte{
		// top 2, lengths 0, 1 and 2 at one bit each: Kraft sum 3/2.
		stream([2]uint64{2, 6}, [2]uint64{7, 3}, [2]uint64{1, 4}, [2]uint64{1, 4}, [2]uint64{1, 4}, [2]uint64{0, 4}),
		// top 1, lengths 0 and 1 at 13 bits, past maxCodeLen.
		stream([2]uint64{1, 6}, [2]uint64{3, 2}, [2]uint64{13, 4}, [2]uint64{1, 4}, [2]uint64{0, 8}),
		// top 3, no length present, four values.
		stream([2]uint64{3, 6}, [2]uint64{0, 4}, [2]uint64{0, 8}),
		// top 1, lengths 0 and 1 at two bits each: Kraft sum 1/2.
		stream([2]uint64{1, 6}, [2]uint64{3, 2}, [2]uint64{2, 4}, [2]uint64{2, 4}, [2]uint64{0, 8}),
		// top 40, past the 32-bit alphabet.
		stream([2]uint64{40, 6}, [2]uint64{1 << 40, 41}),
	}
}

// FuzzBitDeltaDecode hammers Delta's bit-pattern path below the tensor
// framing: whatever the count and bytes, the stream it reads over a base
// is refused or holds exactly the values asked for — and what it accepts
// re-encodes to something that decodes to the same bits.
func FuzzBitDeltaDecode(f *testing.F) {
	dist := []uint32{0, 1, 2, 700, 1 << 20, 1<<32 - 1}
	var hist [33]int
	cur := make([]float32, len(dist))
	for i, z := range dist {
		cur[i] = math.Float32frombits(z)
	}
	bitDistance(dist, &hist, cur, nil)
	packed := encodeStream(dist)
	f.Add(uint16(len(dist)), packed)
	f.Add(uint16(len(dist)+1), packed)   // one value short
	f.Add(uint16(len(dist)), packed[:3]) // payload shorter than its length claims
	f.Add(uint16(2), []byte{2, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, n uint16, packed []byte) {
		base := make([]float32, n)
		for i := range base {
			base[i] = float32(i) - 7.5
		}
		out, err := readStream(bytes.NewReader(packed), []int{int(n)}, 32)
		if err != nil {
			return
		}
		fromDistance(out.Data, base)
		dist := make([]uint32, n)
		var hist [33]int
		bitDistance(dist, &hist, out.Data, base)
		again, err := readStream(bytes.NewReader(encodeStream(dist)), []int{int(n)}, 32)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		fromDistance(again.Data, base)
		for i, v := range out.Data {
			if math.Float32bits(again.Data[i]) != math.Float32bits(v) {
				t.Fatalf("value %d: %08x after re-encode, %08x before", i, math.Float32bits(again.Data[i]), math.Float32bits(v))
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
	f.Add(uint8(1), uint8(0), AppendPlane(nil, nil, 1))       // an empty plane
	wide := bytes.Clone(enc)
	wide[2] |= 63 // values of up to 63 bits
	short := bytes.Clone(enc)
	short[1] = 4 // under a bit a pixel
	unknown := bytes.Clone(enc)
	unknown[0] = 2 // a third predictor
	mustReject := [][]byte{wide, short, unknown, enc[:len(enc)-1]}
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
			t.Fatalf("malformed plane accepted: % x", data[:4])
		}
		claimed, k := binary.Uvarint(data[1:])
		if used := len(data) - len(rest); used != 1+k+int(claimed) {
			t.Fatalf("decoder consumed %d bytes of a plane claiming %d", used, 1+k+int(claimed))
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
