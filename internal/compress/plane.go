package compress

import (
	"fmt"
	"math"
	"math/bits"
)

// An image plane rides the integer stream (bits.go) with a prediction it
// makes from itself: each pixel travels as the zigzag distance from its
// prediction to its own bit pattern. The first row predicts from the left
// neighbour, the first column from the pixel above, and the origin from 0;
// every other pixel from its left a, up b and up-left c neighbours by one
// of two predictors, whichever gives the plane the shorter stream:
//
//	gradient (0): a + b − c, exact on a smooth ramp — the lit, flat people
//	              and animal scenes;
//	median   (1): LOCO-I's median edge detector (JPEG-LS): min(a, b) when
//	              c ≥ both, max(a, b) when c ≤ both, a + b − c otherwise —
//	              better beside the edges of textured street and drone
//	              scenes.
//
// Over 40 frames of each category, gradient took the people scenes to 4.8
// bits a pixel against the median's 11.7 and the animal scenes to 18.7
// against 19.5, and the median took the street scenes to 22.8 against 23.1.
// The arithmetic is on uint32 bit patterns and wraps, so every float — NaN
// payloads, ±Inf, ±0, denormals — reconstructs exactly. Wire layout:
//
//	predictor u8 · one stream of the plane's pixels in scan order

const (
	gradientPredictor = 0
	medianPredictor   = 1
)

// predict is the prediction for pixel x of a row, given the bit pattern of
// its left neighbour (0 for the first pixel) and the row above (empty for
// the first row), both as the decoder has already reconstructed them.
func predict(median bool, left uint32, up []float32, x int) uint32 {
	switch {
	case len(up) == 0:
		return left
	case x == 0:
		return math.Float32bits(up[0])
	}
	b, c := math.Float32bits(up[x]), math.Float32bits(up[x-1])
	switch {
	case !median:
	case c >= max(left, b):
		return min(left, b)
	case c <= min(left, b):
		return max(left, b)
	}
	return left + b - c
}

// residuals returns plane's distances under each predictor, indexed by
// predictor, and their length histograms, from one pass.
func residuals(plane []float32, width int) (dist [2][]uint32, hist [2][33]int) {
	grad, med := make([]uint32, len(plane)), make([]uint32, len(plane))
	for row := 0; row < len(plane); row += width {
		cur, up := plane[row:row+width], plane[max(row-width, 0):row]
		var left uint32
		for x, v := range cur {
			v := math.Float32bits(v)
			g := zigzag(int32(v - predict(false, left, up, x)))
			m := zigzag(int32(v - predict(true, left, up, x)))
			grad[row+x], med[row+x] = g, m
			hist[gradientPredictor][bits.Len32(g)]++
			hist[medianPredictor][bits.Len32(m)]++
			left = v
		}
	}
	return [2][]uint32{gradientPredictor: grad, medianPredictor: med}, hist
}

// AppendPlane appends one image plane, a whole number of rows of width
// pixels, to dst.
func AppendPlane(dst []byte, plane []float32, width int) []byte {
	dist, hist := residuals(plane, width)
	codes := [2]*lengthCode{newLengthCode(&hist[gradientPredictor]), newLengthCode(&hist[medianPredictor])}
	p := gradientPredictor
	if codes[medianPredictor].bits < codes[gradientPredictor].bits {
		p = medianPredictor
	}
	return codes[p].appendStream(append(dst, byte(p)), dist[p])
}

// DecodePlane fills plane, a whole number of rows of width pixels, from the
// front of b and returns the bytes after it.
func DecodePlane(plane []float32, b []byte, width int) ([]byte, error) {
	if len(b) == 0 || b[0] > medianPredictor {
		return nil, fmt.Errorf("compress: plane has no known predictor")
	}
	median := b[0] == medianPredictor
	rest, err := decodeStream(bitsOf(plane), b[1:], 32)
	if err != nil {
		return nil, err
	}
	// Each pixel holds its distance's bits; add the prediction back in scan
	// order, so every neighbour it reads is final.
	for row := 0; row < len(plane); row += width {
		cur, up := plane[row:row+width], plane[max(row-width, 0):row]
		var left uint32
		for x, z := range bitsOf(cur) {
			left = uint32(unzigzag(z)) + predict(median, left, up, x)
			cur[x] = math.Float32frombits(left)
		}
	}
	return rest, nil
}
