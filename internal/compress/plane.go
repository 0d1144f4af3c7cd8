package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// An image plane rides the bit-pattern delta coder with a base it predicts
// from itself: each pixel travels as the zigzag distance from the gradient
// prediction left + up − up-left to its own bit pattern, where the first
// row predicts from the left neighbour, the first column from the pixel
// above, and the origin from 0. The arithmetic is on uint32 bit patterns and
// wraps, so every float — NaN payloads, ±Inf, ±0, denormals — reconstructs
// exactly. A rendered plane is smooth, so the distances are short. The wire
// layout is modeBits's (bits.go):
//
//	widths [4]u8 · byteLen u32 · n × (tag: 2 bits · distance: widths[tag] bits)

// gradient is the prediction for pixel x of a row, given the bit pattern
// of its left neighbour (0 for the first pixel) and the row above (empty
// for the first row), both as the decoder has already reconstructed them.
func gradient(left uint32, up []float32, x int) uint32 {
	switch {
	case len(up) == 0:
		return left
	case x == 0:
		return math.Float32bits(up[0])
	}
	return left + math.Float32bits(up[x]) - math.Float32bits(up[x-1])
}

// AppendPlane appends one image plane, a whole number of rows of width
// pixels, to dst.
func AppendPlane(dst []byte, plane []float32, width int) []byte {
	pred := make([]float32, len(plane))
	for row := 0; row < len(plane); row += width {
		cur, up := plane[row:row+width], plane[max(row-width, 0):row]
		var left uint32
		for x, v := range cur {
			pred[row+x] = math.Float32frombits(gradient(left, up, x))
			left = math.Float32bits(v)
		}
	}
	dist := make([]uint32, len(plane))
	var hist [33]int
	bitDistance(dist, &hist, plane, pred)
	widths, payloadBits := bitWidths(&hist)
	packedLen := (2*len(plane) + payloadBits + 7) / 8
	dst = append(dst, widths[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(packedLen))
	return appendBits(dst, dist, widths, packedLen)
}

// DecodePlane fills plane, a whole number of rows of width pixels, from the
// front of b and returns the bytes after it.
func DecodePlane(plane []float32, b []byte, width int) ([]byte, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("compress: plane header of %d bytes, want 8", len(b))
	}
	packedLen := int64(binary.LittleEndian.Uint32(b[4:]))
	// Every pixel carries a 2-bit tag, so a shorter payload is corrupt
	// whatever its widths.
	if 8*packedLen < 2*int64(len(plane)) {
		return nil, fmt.Errorf("compress: plane payload of %d bytes cannot hold %d pixels", packedLen, len(plane))
	}
	if packedLen > int64(len(b)-8) {
		return nil, fmt.Errorf("compress: plane claims %d payload bytes, only %d remain", packedLen, len(b)-8)
	}
	if err := decodeBits(plane, b[8:8+packedLen], [4]uint8(b[:4]), nil); err != nil {
		return nil, err
	}
	// decodeBits left each pixel's distance as its bit pattern; add the
	// prediction back in scan order, so every neighbour it reads is final.
	for row := 0; row < len(plane); row += width {
		cur, up := plane[row:row+width], plane[max(row-width, 0):row]
		var left uint32
		for x, d := range cur {
			left = math.Float32bits(d) + gradient(left, up, x)
			cur[x] = math.Float32frombits(left)
		}
	}
	return b[8+packedLen:], nil
}
