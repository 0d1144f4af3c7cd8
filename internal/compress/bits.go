package compress

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/tensor"
)

// The integer stream is the one entropy coder behind every payload that is
// a run of small unsigned integers: Int8's zigzag symbols, Delta's
// bit-pattern distances and the key-frame planes' prediction residuals. A
// value z travels as its bit length l = bits.Len32(z) under a canonical
// Huffman code fitted to the stream's own lengths, followed by the l−1 bits
// below its leading one (none for z = 0 or 1). The values of one stream —
// one tensor, one plane — cluster in magnitude, so their lengths carry a few
// bits of entropy and the code spends about that on them, where a fixed
// width spends the widest value's on every one; the bits below the leading
// one are close to uniform and travel as they are.
//
// Wire layout of one stream of n values (n is the caller's: a shape, a
// plane size):
//
//	byteLen uvarint · top: 6 bits · presence: top+1 bits ·
//	    codeLen: 4 bits per present length · n × (code · low bits)
//
// packed LSB-first into byteLen bytes. Length l, for l in 0…top, is present
// when its presence bit is set; present lengths get canonical codes of 1 to
// maxCodeLen bits, shorter codes first and equal ones by length, stored
// bit-reversed so the decoder indexes a table with the stream's next bits.
// The code is complete (Kraft sum 1) unless one length is present, which
// then takes the one-bit code 0. Every value costs at least one bit, so a
// count the payload cannot back is refused before anything is allocated.

// maxCodeLen bounds a code's length, and with it the decoder's table at
// 2^maxCodeLen entries. Lengths come from counts of at most a few million
// values over at most 33 symbols, so the bound rarely binds.
const maxCodeLen = 12

// lengthCode is the canonical Huffman code of one stream's value lengths.
type lengthCode struct {
	top  int        // the longest value length present
	lens [33]uint8  // code length per value length, 0 when absent
	code [33]uint32 // the bit-reversed code
	bits int        // the stream's size in bits, table included
}

// newLengthCode fits the code to hist, the stream's value-length histogram.
func newLengthCode(hist *[33]int) *lengthCode {
	c := &lengthCode{}
	for l, n := range hist {
		if n > 0 {
			c.top = l
		}
	}
	// Halving the counts flattens the tree until its deepest code fits;
	// a count never drops below 1, so every present length keeps a code.
	var w [33]int
	for shift := 0; ; shift++ {
		for l, n := range hist {
			if n > 0 {
				w[l] = max(n>>shift, 1)
			}
		}
		if c.lens = huffmanLengths(&w); slices.Max(c.lens[:]) <= maxCodeLen {
			break
		}
	}
	c.code = canonical(&c.lens)
	c.bits = 6 + c.top + 1
	for l, n := range hist {
		if n > 0 {
			c.bits += 4 + n*(int(c.lens[l])+max(l-1, 0))
		}
	}
	return c
}

// size is the stream's wire size in bytes, byteLen included.
func (c *lengthCode) size() int {
	n := (c.bits + 7) / 8
	return max(bits.Len(uint(n))+6, 7)/7 + n // a uvarint holds 7 bits a byte
}

// huffmanLengths returns the code lengths of a Huffman tree over the
// non-zero weights in w.
func huffmanLengths(w *[33]int) (lens [33]uint8) {
	// Nodes 0…32 are the value lengths, 33… the merges; up[i] is the node i
	// merged into, 0 for the root.
	var weight, up [65]int
	var live []int
	for l, n := range w {
		if n > 0 {
			weight[l] = n
			live = append(live, l)
		}
	}
	if len(live) == 1 {
		lens[live[0]] = 1
		return lens
	}
	for next := 33; len(live) > 1; next++ {
		slices.SortStableFunc(live, func(a, b int) int { return cmp.Compare(weight[a], weight[b]) })
		a, b := live[0], live[1]
		weight[next], up[a], up[b] = weight[a]+weight[b], next, next
		live = append(live[2:], next)
	}
	for l, n := range w {
		for node := l; n > 0 && up[node] != 0; node = up[node] {
			lens[l]++
		}
	}
	return lens
}

// canonical assigns the canonical code of lens (0 = no code), bit-reversed
// for LSB-first packing: shorter codes first, equal ones in length order.
func canonical(lens *[33]uint8) (code [33]uint32) {
	var count, next [maxCodeLen + 1]uint32
	for _, cl := range lens {
		count[cl]++
	}
	for cl := 2; cl <= maxCodeLen; cl++ {
		next[cl] = (next[cl-1] + count[cl-1]) << 1
	}
	for l, cl := range lens {
		if cl != 0 {
			code[l] = bits.Reverse32(next[cl]) >> (32 - cl)
			next[cl]++
		}
	}
	return code
}

// appendStream appends the stream of vals under c, which newLengthCode fitted
// to their lengths.
func (c *lengthCode) appendStream(dst []byte, vals []uint32) []byte {
	// sym[l]: an l-bit value's code | its length << 12 | the bits it takes,
	// code and low, << 16.
	var sym [33]uint32
	for l, cl := range c.lens {
		sym[l] = c.code[l] | uint32(cl)<<12 | (uint32(cl)+uint32(max(l-1, 0)))<<16
	}
	n := (c.bits + 7) / 8
	dst = binary.AppendUvarint(dst, uint64(n))
	w := bitWriter{dst: slices.Grow(dst, n+8)[:len(dst)+n+8], at: len(dst)} // +8: every store is a whole word
	w.put(uint64(c.top), 6)
	for l := 0; l <= c.top; l++ {
		w.put(uint64(min(c.lens[l], 1)), 1)
	}
	for l := 0; l <= c.top; l++ {
		if c.lens[l] != 0 {
			w.put(uint64(c.lens[l]), 4)
		}
	}
	w.putValues(vals, &sym)
	return w.dst[:w.at+int(min(w.pend, 1))]
}

// bitWriter packs fields LSB-first into dst from byte at, storing a whole
// word each time, so dst needs 8 bytes of room past the last field.
type bitWriter struct {
	dst  []byte
	at   int
	acc  uint64 // bits not yet past a byte boundary
	pend uint   // how many, under 8 between fields
}

// put appends the low k bits of v; k + 7 must fit in a word.
func (w *bitWriter) put(v uint64, k uint) {
	acc := w.acc | v<<w.pend
	pend := w.pend + k
	binary.LittleEndian.PutUint64(w.dst[w.at:], acc)
	w.at += int(pend >> 3)
	w.acc = acc >> (pend &^ 7 & 63)
	w.pend = pend & 7
}

// putValues puts each value as its length's code, then the bits below its
// leading one, under appendStream's sym. It is put's loop on locals, so
// they stay in registers.
func (w *bitWriter) putValues(vals []uint32, sym *[33]uint32) {
	dst, at, acc, pend := w.dst, w.at, w.acc, w.pend
	for _, z := range vals {
		l := bits.Len32(z)
		s := sym[l]
		acc |= (uint64(s&0xfff) | uint64(z&lowMask[l])<<(s>>12&15)) << (pend & 63)
		pend += uint(s >> 16)
		binary.LittleEndian.PutUint64(dst[at:], acc)
		at += int(pend >> 3)
		acc >>= pend &^ 7 & 63
		pend &= 7
	}
	w.at, w.acc, w.pend = at, acc, pend
}

// decodeStream fills out from the stream at the front of b and returns the
// bytes after it.
func decodeStream(out []uint32, b []byte, maxLen int) ([]byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, fmt.Errorf("compress: stream length %d over the %d bytes left", n, len(b)-max(k, 0))
	}
	if err := unpack(out, b[k:k+int(n)], maxLen); err != nil {
		return nil, err
	}
	return b[k+int(n):], nil
}

// readStream reads one stream from r into a new tensor of shape, each
// element holding a value's bits (bitsOf); the element count is checked
// against the payload before the tensor is allocated.
func readStream(r io.Reader, shape []int, maxLen int) (*tensor.Tensor, error) {
	byteLen, err := binary.ReadUvarint(byteReader{r})
	if err != nil {
		return nil, fmt.Errorf("compress: stream length: %w", err)
	}
	if n := tensor.NumElems(shape); uint64(n) > 8*byteLen || byteLen > 1<<28 {
		return nil, fmt.Errorf("compress: stream of %d bytes cannot hold %d values", byteLen, n)
	}
	if err := checkClaim(r, int64(byteLen)); err != nil {
		return nil, err
	}
	payload := make([]byte, byteLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("compress: stream payload: %w", err)
	}
	t := tensor.New(shape...)
	return t, unpack(bitsOf(t.Data), payload, maxLen)
}

// bitsOf views floats as their bit patterns, so a stream decodes into the
// slice its values end up in and each decoder converts them in place.
func bitsOf(f []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}

// byteReader reads an io.Reader a byte at a time, for a uvarint that must
// not read past itself.
type byteReader struct{ io.Reader }

func (r byteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(r, b[:])
	return b[0], err
}

// unpack decodes exactly len(out) values from payload, a stream's bytes. A
// value longer than maxLen bits is an error, as are a table no encoder
// writes, a payload that runs dry and one that leaves a whole byte over.
func unpack(out []uint32, payload []byte, maxLen int) error {
	if int64(len(out)) > 8*int64(len(payload)) {
		return fmt.Errorf("compress: stream of %d bytes cannot hold %d values", len(payload), len(out))
	}
	// The table is read a field at a time; off counts the bits read.
	off := uint(0)
	field := func(k uint) uint64 {
		var v uint64
		for i := range k {
			if at := off + i; at>>3 < uint(len(payload)) {
				v |= uint64(payload[at>>3]>>(at&7)&1) << i
			}
		}
		off += k
		return v
	}
	top := int(field(6))
	if top > maxLen {
		return fmt.Errorf("compress: stream value length %d past %d", top, maxLen)
	}
	present := field(uint(top) + 1)
	var lens [33]uint8
	kraft, syms, longest := 0, 0, uint8(0)
	for l := 0; l <= top; l++ {
		if present>>l&1 == 0 {
			continue
		}
		cl := uint8(field(4))
		if cl == 0 || cl > maxCodeLen {
			return fmt.Errorf("compress: stream code length %d outside 1…%d", cl, maxCodeLen)
		}
		lens[l] = cl
		kraft += 1 << (maxCodeLen - cl)
		syms++
		longest = max(longest, cl)
	}
	switch {
	case off > 8*uint(len(payload)):
		return fmt.Errorf("compress: stream table cut short")
	case syms == 0 && len(out) > 0:
		return fmt.Errorf("compress: stream table names no length for %d values", len(out))
	case syms == 1 && kraft != 1<<(maxCodeLen-1), syms > 1 && kraft != 1<<maxCodeLen:
		return fmt.Errorf("compress: stream code is not complete (Kraft sum %d/%d)", kraft, 1<<maxCodeLen)
	}
	// table[the next longest bits] = the value's length << 10 | its code's
	// length << 6 | the bits it takes, code and low; 0 where no code
	// matches (the spare half of a one-length code).
	code := canonical(&lens)
	var table [1 << maxCodeLen]uint16
	for l, cl := range lens {
		k := int(cl) + max(l-1, 0)
		for i := int(code[l]); cl > 0 && i < 1<<longest; i += 1 << cl {
			table[i] = uint16(l)<<10 | uint16(cl)<<6 | uint16(k)
		}
	}
	maxK := uint(longest) + uint(max(top-1, 0))
	i, spare := values(out, payload, off, &table, uint64(1)<<longest-1, maxK)
	if i < len(out) {
		return fmt.Errorf("compress: stream ends at value %d of %d", i, len(out))
	}
	if spare >= 8 {
		return fmt.Errorf("compress: stream has trailing bytes")
	}
	return nil
}

// values decodes out from b's bits past off under table (unpack's, indexed
// by mask), whose longest value takes maxK bits. It returns how many values
// it decoded before the payload ran dry or held a code the table lacks, and
// how many bits it left unread. It is its own function, on locals, so the
// loop's few variables stay in registers.
func values(out []uint32, b []byte, off uint, table *[1 << maxCodeLen]uint16, mask uint64, maxK uint) (int, uint) {
	pos := int(off >> 3)
	var acc uint64 // n bits; the bits above them are the payload's next, early
	var n uint     // under 64 wherever a refill shifts by it
	for ; n < 56 && pos < len(b); pos++ {
		acc |= uint64(b[pos]) << n
		n += 8
	}
	acc >>= off & 7 // the table's part of its last byte
	n -= off & 7
	for i := 0; i < len(out); {
		if pos+8 <= len(b) {
			// Top acc up to 56+ bits: the whole bytes that fit are
			// consumed, the partial one above them is read again next time.
			acc |= binary.LittleEndian.Uint64(b[pos:]) << (n & 63)
			pos += int(63-n) >> 3
			n |= 56
		} else {
			for ; n <= 56 && pos < len(b); pos++ {
				acc |= uint64(b[pos]) << (n & 63)
				n += 8
			}
		}
		// Take every value that surely fits — a short code of a short value
		// takes a refill's bits two or three at a time — or, once acc holds
		// the payload's end, every value left.
		for end := pos == len(b); i < len(out) && (n >= maxK || end); i++ {
			e := uint(table[acc&mask])
			if e == 0 || n < e&63 {
				return i, 0
			}
			out[i] = value(e, acc)
			// e's low bits are the shift, as the shift instruction reads
			// them: acc's next code starts at once.
			acc >>= e & 63
			n -= e & 63
		}
	}
	return len(out), n + 8*uint(len(b)-pos)
}

// value is the value under a table entry e with acc's bits.
func value(e uint, acc uint64) uint32 {
	l := e >> 10 & 63
	return uint32(acc>>(e>>6&15))&lowMask[l] | lead[l]
}

// lowMask[l] covers the bits below an l-bit value's leading one, and
// lead[l] is that one.
var lowMask, lead [64]uint32

func init() {
	for l := 1; l <= 32; l++ {
		lead[l] = 1 << (l - 1)
		lowMask[l] = lead[l] - 1
	}
}

// bitDistance fills dist with the zigzag distances from base to cur (a nil
// base is all zeros) — each value's bit pattern less the base's, counted in
// representable floats — and hist with their bit-length histogram; it
// returns how many are non-zero. Integer subtraction wraps, so every bit
// pattern (NaN payloads, ±0, denormals, ±Inf) reconstructs exactly, and a
// few Adam steps move a weight by far less than its own magnitude, so the
// distance is a small integer where the float32 is 32 bits of entropy.
func bitDistance(dist []uint32, hist *[33]int, cur, base []float32) (changed int) {
	for i, v := range cur {
		var b uint32
		if base != nil {
			b = math.Float32bits(base[i])
		}
		z := zigzag(int32(math.Float32bits(v) - b))
		dist[i] = z
		hist[bits.Len32(z)]++
		if z != 0 {
			changed++
		}
	}
	return changed
}

// fromDistance is bitDistance's inverse in place: each element of out holds
// a zigzag distance's bits (readStream's) and becomes base's value moved by
// it (a nil base is all zeros).
func fromDistance(out []float32, base []float32) {
	for i, z := range bitsOf(out) {
		var b uint32
		if base != nil {
			b = math.Float32bits(base[i])
		}
		out[i] = math.Float32frombits(uint32(unzigzag(z)) + b)
	}
}

func zigzag(d int32) uint32   { return uint32(d<<1) ^ uint32(d>>31) }
func unzigzag(z uint32) int32 { return int32(z>>1) ^ -int32(z&1) }
