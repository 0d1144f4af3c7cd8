package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape: %v", x.Shape())
	}
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestFull(t *testing.T) {
	x := Full(3.5, 2, 2)
	for _, v := range x.Data {
		if v != 3.5 {
			t.Fatalf("Full: got %v", v)
		}
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer expectPanic(t, "FromSlice size mismatch")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.At(1, 2) != 7 {
		t.Fatal("At/Set roundtrip failed")
	}
	if x.Offset(1, 2) != 5 {
		t.Fatalf("Offset = %d, want 5", x.Offset(1, 2))
	}
}

func TestOffsetPanicsOutOfRange(t *testing.T) {
	defer expectPanic(t, "out of range index")
	New(2, 2).At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	x := Full(1, 3)
	y := x.Clone()
	y.Data[0] = 5
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := Full(2, 2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("Reshape must alias data")
	}
	defer expectPanic(t, "bad reshape")
	x.Reshape(5)
}

func TestCopyFrom(t *testing.T) {
	x := New(2, 2)
	y := Full(4, 2, 2)
	x.CopyFrom(y)
	if x.Data[3] != 4 {
		t.Fatal("CopyFrom failed")
	}
	defer expectPanic(t, "shape mismatch")
	x.CopyFrom(New(3))
}

func TestSumMeanMinMax(t *testing.T) {
	x := FromSlice([]float32{1, -2, 3, 4}, 4)
	if x.Sum() != 6 {
		t.Fatalf("Sum = %v", x.Sum())
	}
}

func TestL2Norm(t *testing.T) {
	x := FromSlice([]float32{3, 4}, 2)
	if math.Abs(x.L2Norm()-5) > 1e-9 {
		t.Fatalf("L2Norm = %v, want 5", x.L2Norm())
	}
}

func TestAllFinite(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	if !x.AllFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	x.Data[1] = float32(math.NaN())
	if x.AllFinite() {
		t.Fatal("NaN not detected")
	}
	x.Data[1] = float32(math.Inf(1))
	if x.AllFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestArgmaxChannel(t *testing.T) {
	// 2 channels, 1x2 spatial.
	x := FromSlice([]float32{1, 5, 3, 2}, 2, 1, 2)
	got := x.ArgmaxChannel(nil)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxChannel = %v, want [1 0]", got)
	}
}

func TestArgmaxChannelReusesBuffer(t *testing.T) {
	x := New(2, 2, 2)
	buf := make([]int32, 4)
	got := x.ArgmaxChannel(buf)
	if &got[0] != &buf[0] {
		t.Fatal("buffer not reused")
	}
}

// Property: Sum is invariant under Reshape.
func TestQuickSumReshapeInvariant(t *testing.T) {
	f := func(vals []float32) bool {
		n := len(vals)
		if n == 0 {
			return true
		}
		x := FromSlice(vals, n)
		y := x.Reshape(1, n)
		return x.Sum() == y.Sum()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone equals source elementwise.
func TestQuickCloneEqual(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := FromSlice(vals, len(vals))
		y := x.Clone()
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
}

func expectPanic(t *testing.T, name string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", name)
	}
}
