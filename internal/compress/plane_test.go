package compress

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/video"
)

// The plane layout is a wire format: a predictor byte, then each pixel as
// the distance from that predictor's guess on bit patterns — the gradient
// left + up − up-left, LOCO-I's median, or the reference plane's local
// slope — with the first row predicted from the left, the first column from
// above and the origin from 0.
func TestAppendPlanePicksPredictor(t *testing.T) {
	b := math.Float32bits
	inf := float32(math.Inf(1))
	plane := []float32{
		1, 3.5, 4,
		-0.5, 3, 9,
		7, inf, 0,
	}
	// The median, row 2: up-left 1 under left −0.5's pattern (a sign bit)
	// and up 3.5, so the larger pattern; up-left 3.5 between left 3 and up
	// 4, so the gradient. Row 3: up-left −0.5 over left 7 and up 3, so the
	// smaller; up-left 3 under left +Inf and up 9, so the larger.
	//
	// Cross, against ref: at row 2's middle pixel the reference pair
	// (left, up-left) differs by 2 and (up, up-left) by 1, so k = (−0.5 −
	// 1) / 2 from the first and the guess is −0.5 + k·(0.75 − 2.5); at its
	// last, (up, up-left) differs by 1 and (left, up-left) by 0.75, so k =
	// (4 − 3.5) / 1 and the guess is 3 + k·(2 − 0.75). Row 3 reads the
	// reference's NaN, and its last pixel the plane's +Inf, so both take
	// the gradient.
	nan := float32(math.NaN())
	ref := []float32{
		0.5, 1.5, 2.5,
		2.5, 0.75, 2,
		1, nan, 3,
	}
	for _, c := range []struct {
		predictor int
		pred      []uint32
	}{
		{gradientPredictor, []uint32{
			0, b(1), b(3.5),
			b(1), b(-0.5) + b(3.5) - b(1), b(3) + b(4) - b(3.5),
			b(-0.5), b(7) + b(3) - b(-0.5), b(inf) + b(9) - b(3),
		}},
		{medianPredictor, []uint32{
			0, b(1), b(3.5),
			b(1), b(-0.5), b(3) + b(4) - b(3.5),
			b(-0.5), b(3), b(inf),
		}},
		{crossPredictor, []uint32{
			0, b(1), b(3.5),
			b(1), b(-0.5 + (-1.5/2)*(0.75-2.5)), b(3 + 0.5*(2-0.75)),
			b(-0.5), b(7) + b(3) - b(-0.5), b(inf) + b(9) - b(3),
		}},
	} {
		dist, _ := residuals(plane, ref, 3)
		for i, v := range plane {
			if got, want := uint32(unzigzag(dist[c.predictor][i])), b(v)-c.pred[i]; got != want {
				t.Fatalf("predictor %d: pixel %d rides as %08x, want %08x", c.predictor, i, got, want)
			}
		}
	}
	if dist, _ := residuals(plane, nil, 3); dist[crossPredictor] != nil {
		t.Fatal("cross residuals for an image's first plane, which has no reference")
	}
	// A flat reference has no slope to follow: cross is the gradient.
	dist, _ := residuals(plane, []float32{2, 2, 2, 2, 2, 2, 2, 2, 2}, 3)
	if !slices.Equal(dist[crossPredictor], dist[gradientPredictor]) {
		t.Fatal("cross departs from the gradient against a flat reference")
	}
	// The encoder sends whichever stream is shorter: the median's for a
	// drone frame's R and cross for its G and B, which are locally affine
	// in the plane before; the gradient's for a flat, lit softball frame's
	// R. Softball's G and B code about as well from themselves as from the
	// plane before (this frame's take cross, by 5 and 10 %), and a plane
	// never codes longer with a reference than without one.
	for name, want := range map[string][3]byte{
		"drone":    {medianPredictor, crossPredictor, crossPredictor},
		"softball": {gradientPredictor, crossPredictor, crossPredictor},
	} {
		cfg, err := video.NamedVideo(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, err := video.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		img := g.Next().Image
		hw, w := img.Dim(1)*img.Dim(2), img.Dim(2)
		var ref []float32
		for c := range 3 {
			p := img.Data[c*hw : (c+1)*hw]
			enc := AppendPlane(nil, p, ref, w)
			if enc[0] != want[c] {
				t.Fatalf("%s plane %d: predictor %d, want %d", name, c, enc[0], want[c])
			}
			if alone := AppendPlane(nil, p, nil, w); len(enc) > len(alone) {
				t.Fatalf("%s plane %d: %d bytes against the plane before, %d alone", name, c, len(enc), len(alone))
			}
			dist, _ := residuals(p, ref, w)
			sent := make([]uint32, len(p))
			if rest, err := decodeStream(sent, enc[1:], 32); err != nil || len(rest) != 0 {
				t.Fatalf("%s plane %d: %v, %d bytes left over", name, c, err, len(rest))
			}
			for i, z := range dist[want[c]] {
				if sent[i] != z {
					t.Fatalf("%s plane %d: pixel %d rides as %08x, want %08x", name, c, i, sent[i], z)
				}
			}
			ref = p
		}
	}
}

// appendPlaneAs is AppendPlane with the predictor forced.
func appendPlaneAs(p int, plane, ref []float32, width int) []byte {
	dist, hist := residuals(plane, ref, width)
	return newLengthCode(&hist[p]).appendStream([]byte{byte(p)}, dist[p])
}

// Every (plane, reference) pair comes back bit for bit under every
// predictor, and under the one AppendPlane picks: special values in either
// plane, where cross falls back to the gradient, a reference with no slope
// anywhere, runs clamped at 0 and 1, and planes too narrow or short for an
// interior pixel.
func TestPlaneRoundTripsUnderEveryPredictor(t *testing.T) {
	f := math.Float32frombits
	inf, nan := float32(math.Inf(1)), f(0x7fc00001)
	smooth := make([]float32, 6*5)
	for i := range smooth {
		smooth[i] = float32(i%6)/6 + float32(i/6)/5
	}
	affine := make([]float32, len(smooth))
	clamped := make([]float32, len(smooth))
	for i, r := range smooth {
		affine[i] = 0.269063*r + 0.1
		clamped[i] = min(max(3*r-1, 0), 1)
	}
	special := []float32{
		f(0x7fc00000), f(0xffc00001), f(0x7f800001), inf, -inf, 0,
		f(0x80000000), f(1), f(0x807fffff), f(0x00400000), 0.5, nan,
		0.25, -inf, 0.75, f(0x80000000), 0, f(2),
		1, 1, 0, 0, math.MaxFloat32, -math.MaxFloat32,
		0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
	}
	rng := rand.New(rand.NewSource(5))
	noise := make([]float32, len(smooth))
	for i := range noise {
		noise[i] = f(rng.Uint32())
	}
	constant := make([]float32, len(smooth))
	for i := range constant {
		constant[i] = 0.4
	}
	cases := []struct {
		name       string
		plane, ref []float32
		width      int
	}{
		{"affine in the reference", affine, smooth, 6},
		{"special values in the plane", special, smooth, 6},
		{"special values in the reference", smooth, special, 6},
		{"special values in both", special, special, 6},
		{"special values beside special values", special, noise, 6},
		{"random bit patterns", noise, affine, 6},
		{"a constant reference", affine, constant, 6},
		{"runs clamped at 0 and 1", clamped, smooth, 6},
		{"clamped runs as the reference", affine, clamped, 6},
		{"one pixel wide", special[:7], smooth[:7], 1},
		{"one row", special[:6], affine[:6], 6},
		{"empty", nil, []float32{}, 4},
	}
	for _, c := range cases {
		ref := c.ref
		if len(ref) != len(c.plane) {
			ref = nil
		}
		for p := gradientPredictor; p <= crossPredictor; p++ {
			if p == crossPredictor && ref == nil {
				continue
			}
			got := make([]float32, len(c.plane))
			if rest, err := DecodePlane(got, ref, append(appendPlaneAs(p, c.plane, ref, c.width), 7), c.width); err != nil || !bytes.Equal(rest, []byte{7}) {
				t.Fatalf("%s, predictor %d: %v, rest % x", c.name, p, err, rest)
			}
			for i, v := range c.plane {
				if math.Float32bits(got[i]) != math.Float32bits(v) {
					t.Fatalf("%s, predictor %d: pixel %d %08x, want %08x", c.name, p, i, math.Float32bits(got[i]), math.Float32bits(v))
				}
			}
		}
		got := make([]float32, len(c.plane))
		if _, err := DecodePlane(got, ref, AppendPlane(nil, c.plane, ref, c.width), c.width); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, v := range c.plane {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				t.Fatalf("%s: pixel %d %08x, want %08x", c.name, i, math.Float32bits(got[i]), math.Float32bits(v))
			}
		}
	}
	// An affine plane is cross's exact case: every interior pixel rides as
	// a zero, and cross is the stream AppendPlane sends.
	if enc := AppendPlane(nil, affine, smooth, 6); enc[0] != crossPredictor {
		t.Fatalf("affine plane sent under predictor %d", enc[0])
	}
	// Cross reads a reference; without one the byte names no predictor.
	if _, err := DecodePlane(make([]float32, len(affine)), nil, appendPlaneAs(crossPredictor, affine, smooth, 6), 6); err == nil {
		t.Fatal("cross plane decoded without a reference")
	}
}

// crossPinPlane is TestCrossPlaneBytesPinned's (plane, reference) pair, two
// pixels wide. Each odd row r reads, at its second pixel, a left pair whose
// reference steps 0 → 3, so k = a/3 is an inexact quotient, and a reference
// pixel ε close to 0, so the guess a + k·(ε − 3) cancels to ≈ a·ε/3: the
// float64 rounding of the product reaches the float32 guess there, and a
// fused multiply-add gives other bits. The plane holds ≈ a·ε/3 at that
// pixel, so cross codes it in a few bits.
func crossPinPlane(rows int) (plane, ref []float32) {
	plane, ref = make([]float32, 2*rows), make([]float32, 2*rows)
	for r := 1; r < rows; r += 2 {
		a, eps := float32(r)/100, float32(1+r%7)*1e-10
		plane[2*r], plane[2*r+1] = a, float32(float64(a)*float64(eps)/3)
		ref[2*r], ref[2*r+1] = 3, eps
	}
	return plane, ref
}

// crossPlaneBytesHash is the FNV-1a hash of AppendPlane's bytes for
// crossPinPlane(64).
const crossPlaneBytesHash = 0x9e97d68e70cc7669

// TestCrossPlaneBytesPinned pins the cross predictor's arithmetic on every
// architecture, renderer aside: a client and a server built for different
// ones must make the same guesses, or the server rebuilds other pixels than
// the client sent. The pair is built so a fused multiply-add moves most of
// its guesses, which the test checks before it hashes the bytes.
func TestCrossPlaneBytesPinned(t *testing.T) {
	const rows = 64
	plane, ref := crossPinPlane(rows)
	fused := 0
	for r := 1; r < rows; r += 2 {
		cur, up, rcur, rup := plane[2*r:2*r+2], plane[2*r-2:2*r], ref[2*r:2*r+2], ref[2*r-2:2*r]
		a := float64(cur[0])
		guess := predictCross(math.Float32bits(cur[0]), up, rcur, rup, 1)
		if math.Float32bits(float32(math.FMA(a/3, float64(rcur[1])-3, a))) != guess {
			fused++
		}
	}
	if fused < rows/4 {
		t.Fatalf("a fused multiply-add moves %d of %d guesses; the pair no longer tells the two apart", fused, rows/2)
	}
	enc := AppendPlane(nil, plane, ref, 2)
	if enc[0] != crossPredictor {
		t.Fatalf("predictor %d, want cross", enc[0])
	}
	got := make([]float32, len(plane))
	if rest, err := DecodePlane(got, ref, enc, 2); err != nil || len(rest) != 0 || !slices.Equal(bitsOf(got), bitsOf(plane)) {
		t.Fatalf("round trip: %v, %d bytes left over, or other bits", err, len(rest))
	}
	h := fnv.New64a()
	h.Write(enc)
	if sum := h.Sum64(); sum != crossPlaneBytesHash {
		t.Fatalf("cross plane encodes to bytes hashing %#x, want %#x: the cross predictor's arithmetic changed", sum, uint64(crossPlaneBytesHash))
	}
}
