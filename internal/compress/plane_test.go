package compress

import (
	"encoding/binary"
	"math"
	"testing"
)

// The plane layout is a wire format: each pixel rides as the distance from
// its gradient prediction left + up − up-left, with the first row predicted
// from the left, the first column from above and the origin from 0.
func TestAppendPlanePredictsGradient(t *testing.T) {
	b := math.Float32bits
	plane := []float32{
		1, 2, 4,
		-0.5, 3, 9,
		7, float32(math.Inf(1)), 0,
	}
	pred := []uint32{
		0, b(1), b(2),
		b(1), b(-0.5) + b(2) - b(1), b(3) + b(4) - b(2),
		b(-0.5), b(7) + b(3) - b(-0.5), b(float32(math.Inf(1))) + b(9) - b(3),
	}
	enc := AppendPlane(nil, plane, 3)
	if n := binary.LittleEndian.Uint32(enc[4:]); int(n) != len(enc)-8 {
		t.Fatalf("header claims %d payload bytes, %d follow", n, len(enc)-8)
	}
	dist := make([]float32, len(plane))
	if err := decodeBits(dist, enc[8:], [4]uint8(enc[:4]), nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range plane {
		if got, want := b(dist[i]), b(v)-pred[i]; got != want {
			t.Fatalf("pixel %d rides as %08x, want %08x", i, got, want)
		}
	}
}
