package compress

import (
	"math"
	"testing"

	"repro/internal/video"
)

// The plane layout is a wire format: a predictor byte, then each pixel as
// the distance from that predictor's guess on bit patterns — the gradient
// left + up − up-left or LOCO-I's median — with the first row predicted from
// the left, the first column from above and the origin from 0.
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
	} {
		dist, _ := residuals(plane, 3)
		for i, v := range plane {
			if got, want := uint32(unzigzag(dist[c.predictor][i])), b(v)-c.pred[i]; got != want {
				t.Fatalf("predictor %d: pixel %d rides as %08x, want %08x", c.predictor, i, got, want)
			}
		}
	}
	// The encoder sends whichever stream is shorter: the median's on a
	// textured street scene, the gradient's on a flat, lit one.
	for name, want := range map[string]byte{"drone": medianPredictor, "softball": gradientPredictor} {
		cfg, err := video.NamedVideo(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, err := video.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		img := g.Next().Image
		w := img.Dim(2)
		p := img.Data[:img.Dim(1)*w]
		enc := AppendPlane(nil, p, w)
		if enc[0] != want {
			t.Fatalf("%s: predictor %d, want %d", name, enc[0], want)
		}
		dist, _ := residuals(p, w)
		sent := make([]uint32, len(p))
		if rest, err := decodeStream(sent, enc[1:], 32); err != nil || len(rest) != 0 {
			t.Fatalf("%s: %v, %d bytes left over", name, err, len(rest))
		}
		for i, z := range dist[want] {
			if sent[i] != z {
				t.Fatalf("%s: pixel %d rides as %08x, want %08x", name, i, sent[i], z)
			}
		}
	}
}
