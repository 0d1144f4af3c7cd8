package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The bit-pattern delta coder is Delta's dense mode under a bit-exact
// inner: each value travels as zigzag(int32(bits(v) − bits(base))), the
// distance between the two floats counted in representable values. A few
// Adam steps move a weight by far less than its own magnitude, so the
// distance is a small integer where the float32 itself is 32 bits of
// entropy — and integer subtraction wraps, so every bit pattern (NaN
// payloads, ±0, denormals, ±Inf) reconstructs exactly.
//
// Wire layout of one tensor of n values:
//
//	widths [4]u8 · byteLen u32 · n × (tag: 2 bits · distance: widths[tag] bits)
//
// packed LSB-first into byteLen bytes. The four widths are chosen per
// tensor (bitWidths) because the distances of one tensor cluster: weights
// of one layer share an exponent range, so they share a distance range.

// bitDistance fills dist with the zigzag distances from base to cur (a nil
// base is all zeros) and hist with their bit-length histogram; it returns
// how many are non-zero.
func bitDistance(dist []uint32, hist *[33]int, cur, base []float32) (changed int) {
	for i, v := range cur {
		var b uint32
		if base != nil {
			b = math.Float32bits(base[i])
		}
		d := int32(math.Float32bits(v) - b)
		z := uint32(d<<1) ^ uint32(d>>31)
		dist[i] = z
		hist[bits.Len32(z)]++
		if z != 0 {
			changed++
		}
	}
	return changed
}

// bitWidths picks the four distance widths that minimise the packed size
// of a tensor with the given bit-length histogram, and returns that size
// in bits without the tags. A distance rides the narrowest width that
// holds it, so the widths cut the lengths 0…32 into four runs and the
// optimum is a shortest path over the cut points. Widths may repeat (a
// tensor with fewer than four distinct lengths has nothing to cut).
func bitWidths(hist *[33]int) (widths [4]uint8, payloadBits int) {
	var upTo [34]int // upTo[b] = values whose distance is shorter than b bits
	top := 0
	for b, c := range hist {
		upTo[b+1] = upTo[b] + c
		if c > 0 {
			top = b
		}
	}
	// cost[k][b]: fewest bits for every distance of length ≤ b under k+1
	// widths, the widest being b; from[k][b] is the next width down.
	var cost [4][33]int
	var from [4][33]uint8
	for b := 0; b <= top; b++ {
		cost[0][b] = upTo[b+1] * b
	}
	for k := 1; k < 4; k++ {
		for b := 0; b <= top; b++ {
			cost[k][b] = cost[k-1][b]
			from[k][b] = uint8(b)
			for a := 0; a < b; a++ {
				if c := cost[k-1][a] + (upTo[b+1]-upTo[a+1])*b; c < cost[k][b] {
					cost[k][b], from[k][b] = c, uint8(a)
				}
			}
		}
	}
	widths[3] = uint8(top)
	for k := 3; k > 0; k-- {
		widths[k-1] = from[k][widths[k]]
	}
	return widths, cost[3][top]
}

// appendBits packs dist under widths onto dst; packedLen is the size
// bitWidths promised, which sizes the output once.
func appendBits(dst []byte, dist []uint32, widths [4]uint8, packedLen int) []byte {
	// For an l-bit distance: the first tag whose width holds it, and the
	// bits the pair takes.
	var tagOf, bitsOf [33]uint8
	for l, tag := 0, uint8(0); l <= int(widths[3]); l++ {
		for l > int(widths[tag]) {
			tag++
		}
		tagOf[l], bitsOf[l] = tag, 2+widths[tag]
	}
	at := len(dst)
	dst = slices.Grow(dst, packedLen+8)[:at+packedLen+8] // +8: every store below is a whole word
	var acc uint64
	var n uint // bits pending in acc, under 8 between values
	for _, z := range dist {
		l := bits.Len32(z)
		acc |= (uint64(tagOf[l]) | uint64(z)<<2) << (n & 7)
		n += uint(bitsOf[l])
		binary.LittleEndian.PutUint64(dst[at:], acc)
		at += int(n >> 3)
		acc >>= n &^ 7 & 63
		n &= 7
	}
	return dst[:len(dst)-8]
}

// decodeBits reverses appendBits over base into out (len(out) values; a
// nil base is all zeros). The packed bytes must hold exactly len(out)
// values: a stream that runs dry or leaves whole bytes over is corrupt.
func decodeBits(out []float32, packed []byte, widths [4]uint8, base []float32) error {
	for _, w := range widths {
		if w > 32 {
			return fmt.Errorf("compress: bit-delta width %d exceeds 32", w)
		}
	}
	var acc uint64
	var n uint // valid bits in acc; bits above them are the stream's next, early
	pos := 0
	for i := range out {
		if pos+8 <= len(packed) {
			// Top acc up to 56+ bits: the whole bytes that fit are consumed,
			// the partial one above them is read again next time.
			acc |= binary.LittleEndian.Uint64(packed[pos:]) << (n & 63)
			pos += int(63-n) >> 3
			n |= 56
		} else {
			for ; n <= 56 && pos < len(packed); pos++ {
				acc |= uint64(packed[pos]) << n
				n += 8
			}
		}
		w := uint(widths[acc&3])
		if n < 2+w {
			return fmt.Errorf("compress: bit-delta payload ends at value %d of %d", i, len(out))
		}
		z := uint32(acc >> 2 & (1<<(w&63) - 1))
		acc >>= (2 + w) & 63
		n -= 2 + w
		out[i] = math.Float32frombits(z>>1 ^ -(z & 1))
	}
	if n+8*uint(len(packed)-pos) >= 8 {
		return fmt.Errorf("compress: bit-delta payload has trailing bytes")
	}
	if base != nil {
		for i, b := range base[:len(out)] {
			out[i] = math.Float32frombits(math.Float32bits(out[i]) + math.Float32bits(b))
		}
	}
	return nil
}
