package compress

import (
	"fmt"
	"math"
	"math/bits"
)

// An image plane rides the integer stream (bits.go) with a prediction it
// makes from itself and, after an image's first plane, from the plane coded
// just before it (its reference): each pixel travels as the zigzag distance
// from its prediction to its own bit pattern. The first row predicts from
// the left neighbour, the first column from the pixel above, and the origin
// from 0; every other pixel from its left a, up b and up-left c neighbours
// by one of three predictors, whichever gives the plane the shorter stream:
//
//	gradient (0): a + b − c, exact on a smooth ramp — the lit, flat people
//	              and animal scenes;
//	median   (1): LOCO-I's median edge detector (JPEG-LS): min(a, b) when
//	              c ≥ both, max(a, b) when c ≤ both, a + b − c otherwise —
//	              better beside the edges of textured street and drone
//	              scenes;
//	cross    (2): the reference's local slope: of the causal pairs (b, c)
//	              and (a, c), the one whose reference pixels differ most
//	              gives k = Δplane / Δreference, and the guess is
//	              a + k·(reference at x − reference at a) — a rendered
//	              scene's G and B are locally affine in R and G.
//
// Over 40 frames of each category, gradient took the people scenes to 4.8
// bits a pixel against the median's 11.7 and the animal scenes to 18.7
// against 19.5, and the median took the street scenes to 22.8 against 23.1.
// On 45 drone key frames cross takes G from 23.8 bits a pixel to 12.2 and B
// from 23.3 to 8.1. Gradient and median are uint32 arithmetic on bit
// patterns and wrap; cross is float64 arithmetic, its product rounded by an
// explicit conversion so no compiler fuses it into a multiply-add, and it
// falls back to the gradient when a pixel it reads or its result is not
// finite, or the reference pair is flat. So every prediction is a pure
// function of bit patterns, and every float — NaN payloads, ±Inf, ±0,
// denormals — reconstructs exactly; CI checks that predictCross compiles
// unfused for the architectures whose compilers fuse. Wire layout:
//
//	predictor u8 · one stream of the plane's pixels in scan order

const (
	gradientPredictor = 0
	medianPredictor   = 1
	crossPredictor    = 2
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

// predictCross is the cross predictor's guess for pixel x of a row, given
// predict's neighbours and the reference plane's row ref and the row above
// it, refUp. It is the gradient's guess on the first row and column, where
// a pixel it reads or its result is not finite, and where the reference
// pair is flat.
func predictCross(left uint32, up, ref, refUp []float32, x int) uint32 {
	grad := predict(false, left, up, x)
	if len(up) == 0 || x == 0 {
		return grad
	}
	a, b, c := math.Float32frombits(left), up[x], up[x-1]
	rx, ra, rb, rc := ref[x], ref[x-1], refUp[x], refUp[x-1]
	const inf = 0x7f800000 // a pattern at or past it, sign cleared, is ±Inf or NaN
	f := math.Float32bits
	if max(f(abs32(a)), f(abs32(b)), f(abs32(c)), f(abs32(rx)), f(abs32(ra)), f(abs32(rb)), f(abs32(rc))) >= inf {
		return grad
	}
	dp, dr := float64(b)-float64(c), float64(rb)-float64(rc)
	if dl := float64(ra) - float64(rc); math.Abs(dl) >= math.Abs(dr) {
		dp, dr = float64(a)-float64(c), dl
	}
	if dr == 0 {
		return grad
	}
	// The conversion rounds the product, so no compiler fuses it into the
	// add (the Go spec's rule for explicit conversions).
	guess := float32(float64(a) + float64(dp/dr*(float64(rx)-float64(ra))))
	if f(abs32(guess)) >= inf {
		return grad
	}
	return math.Float32bits(guess)
}

// residuals returns plane's distances under each predictor, indexed by
// predictor, and their length histograms, from one pass. Without a
// reference the cross predictor's distances are nil.
func residuals(plane, ref []float32, width int) (dist [3][]uint32, hist [3][33]int) {
	for p := range dist {
		if p != crossPredictor || ref != nil {
			dist[p] = make([]uint32, len(plane))
		}
	}
	for row := 0; row < len(plane); row += width {
		cur, up := plane[row:row+width], plane[max(row-width, 0):row]
		var rcur, rup []float32
		if ref != nil {
			rcur, rup = ref[row:row+width], ref[max(row-width, 0):row]
		}
		var left uint32
		for x, v := range cur {
			v := math.Float32bits(v)
			g := zigzag(int32(v - predict(false, left, up, x)))
			m := zigzag(int32(v - predict(true, left, up, x)))
			dist[gradientPredictor][row+x], dist[medianPredictor][row+x] = g, m
			hist[gradientPredictor][bits.Len32(g)]++
			hist[medianPredictor][bits.Len32(m)]++
			if ref != nil {
				r := zigzag(int32(v - predictCross(left, up, rcur, rup, x)))
				dist[crossPredictor][row+x] = r
				hist[crossPredictor][bits.Len32(r)]++
			}
			left = v
		}
	}
	return dist, hist
}

// AppendPlane appends one image plane, a whole number of rows of width
// pixels, to dst. ref is the plane coded just before it in the same image,
// nil for an image's first plane; the decoder needs the same ref.
func AppendPlane(dst []byte, plane, ref []float32, width int) []byte {
	dist, hist := residuals(plane, ref, width)
	p, code := gradientPredictor, newLengthCode(&hist[gradientPredictor])
	for q := medianPredictor; q <= crossPredictor; q++ {
		if dist[q] == nil {
			continue
		}
		if c := newLengthCode(&hist[q]); c.bits < code.bits {
			p, code = q, c
		}
	}
	return code.appendStream(append(dst, byte(p)), dist[p])
}

// DecodePlane fills plane, a whole number of rows of width pixels, from the
// front of b and returns the bytes after it. ref is AppendPlane's: nil, or
// the already decoded plane before it, as long as plane.
func DecodePlane(plane, ref []float32, b []byte, width int) ([]byte, error) {
	if len(b) == 0 || b[0] > crossPredictor || (b[0] == crossPredictor && ref == nil) {
		return nil, fmt.Errorf("compress: plane has no known predictor")
	}
	p := b[0]
	rest, err := decodeStream(bitsOf(plane), b[1:], 32)
	if err != nil {
		return nil, err
	}
	// Each pixel holds its distance's bits; add the prediction back in scan
	// order, so every neighbour it reads is final.
	for row := 0; row < len(plane); row += width {
		cur, up := plane[row:row+width], plane[max(row-width, 0):row]
		var rcur, rup []float32
		if ref != nil {
			rcur, rup = ref[row:row+width], ref[max(row-width, 0):row]
		}
		var left uint32
		for x, z := range bitsOf(cur) {
			var guess uint32
			if p == crossPredictor {
				guess = predictCross(left, up, rcur, rup, x)
			} else {
				guess = predict(p == medianPredictor, left, up, x)
			}
			left = uint32(unzigzag(z)) + guess
			cur[x] = math.Float32frombits(left)
		}
	}
	return rest, nil
}
