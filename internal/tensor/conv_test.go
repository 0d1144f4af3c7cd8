package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// convNaive is a reference direct convolution used to validate the
// im2col-based Conv2D.
func convNaive(x, w, b *Tensor, s ConvSpec) *Tensor {
	oc := w.Dim(0)
	c, h, wid := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := s.OutSize(h, wid)
	out := New(oc, oh, ow)
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float64
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < s.KH; ky++ {
						for kx := 0; kx < s.KW; kx++ {
							iy := oy*s.SH - s.PH + ky
							ix := ox*s.SW - s.PW + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= wid {
								continue
							}
							sum += float64(x.At(ch, iy, ix)) * float64(w.At(o, ch, ky, kx))
						}
					}
				}
				if b != nil {
					sum += float64(b.Data[o])
				}
				out.Set(float32(sum), o, oy, ox)
			}
		}
	}
	return out
}

func TestSpecOutSize(t *testing.T) {
	s := Spec(3, 3)
	oh, ow := s.OutSize(8, 10)
	if oh != 8 || ow != 10 {
		t.Fatalf("same-pad 3x3 stride1: got %dx%d", oh, ow)
	}
	s2 := Spec(3, 3).WithStride(2)
	oh, ow = s2.OutSize(8, 10)
	if oh != 4 || ow != 5 {
		t.Fatalf("stride2: got %dx%d", oh, ow)
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []ConvSpec{
		Spec(3, 3),
		Spec(3, 1),
		Spec(1, 3),
		Spec(1, 1),
		Spec(3, 3).WithStride(2),
	}
	for _, s := range cases {
		x := randTensor(rng, 3, 8, 6)
		w := randTensor(rng, 4, 3, s.KH, s.KW)
		b := randTensor(rng, 4)
		got := Conv2D(x, w, b, s)
		want := convNaive(x, w, b, s)
		if d := maxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("spec %+v: max diff %g", s, d)
		}
	}
}

func TestConv2DNilBias(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randTensor(rng, 2, 4, 4)
	w := randTensor(rng, 3, 2, 3, 3)
	got := Conv2D(x, w, nil, Spec(3, 3))
	want := convNaive(x, w, nil, Spec(3, 3))
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("nil bias diff %g", d)
	}
}

func TestIm2colRoundTripViaConv(t *testing.T) {
	// A 1x1 stride-1 conv with identity weights must reproduce the input.
	x := randTensor(rand.New(rand.NewSource(7)), 2, 5, 5)
	w := New(2, 2, 1, 1)
	w.Set(1, 0, 0, 0, 0)
	w.Set(1, 1, 1, 0, 0)
	y := Conv2D(x, w, nil, Spec(1, 1))
	assertClose(t, y, x, 1e-6)
}

// Col2imInto must be the adjoint of Im2col: <Im2col(x), y> == <x, Col2im(y)>.
func TestCol2imAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range []ConvSpec{Spec(3, 3), Spec(3, 3).WithStride(2), Spec(1, 3)} {
		x := randTensor(rng, 2, 6, 5)
		cols := Im2col(x, s, nil)
		y := randTensor(rng, cols.Dim(0), cols.Dim(1))
		lhs := dot(cols, y)
		back := New(2, 6, 5)
		Col2imInto(back, y, s)
		rhs := dot(x, back)
		if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
			t.Fatalf("spec %+v: adjoint identity violated: %g vs %g", s, lhs, rhs)
		}
	}
}

// Conv2DBackward gradients must match finite differences.
func TestConv2DBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := Spec(3, 3).WithStride(2)
	x := randTensor(rng, 2, 6, 6)
	w := randTensor(rng, 3, 2, 3, 3)
	b := randTensor(rng, 3)
	gy := randTensor(rng, 3, 3, 3)

	lossOf := func() float64 {
		out := Conv2D(x, w, b, s)
		var l float64
		for i := range out.Data {
			l += float64(out.Data[i]) * float64(gy.Data[i])
		}
		return l
	}
	dx, dw, db := Conv2DBackwardWS(nil, x, w, gy, s, true)

	checkGrad := func(name string, param, analytic *Tensor) {
		const eps = 1e-3
		for _, i := range []int{0, param.Len() / 2, param.Len() - 1} {
			orig := param.Data[i]
			param.Data[i] = orig + eps
			fp := lossOf()
			param.Data[i] = orig - eps
			fm := lossOf()
			param.Data[i] = orig
			num := (fp - fm) / (2 * eps)
			got := float64(analytic.Data[i])
			if math.Abs(num-got) > 1e-2*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", name, i, got, num)
			}
		}
	}
	checkGrad("dx", x, dx)
	checkGrad("dw", w, dw)
	checkGrad("db", b, db)
}

func TestConv2DBackwardSkipsInputGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randTensor(rng, 1, 4, 4)
	w := randTensor(rng, 1, 1, 3, 3)
	gy := randTensor(rng, 1, 4, 4)
	dx, dw, db := Conv2DBackwardWS(nil, x, w, gy, Spec(3, 3), false)
	if dx != nil {
		t.Fatal("needInput=false must return nil dx")
	}
	if dw == nil || db == nil {
		t.Fatal("dw/db must still be computed")
	}
}

func TestUpsampleNearest2x(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	y := UpsampleNearest2xWS(nil, x)
	if y.Dim(1) != 4 || y.Dim(2) != 4 {
		t.Fatalf("bad upsample shape %v", y.Shape())
	}
	if y.At(0, 0, 0) != 1 || y.At(0, 0, 1) != 1 || y.At(0, 3, 3) != 4 {
		t.Fatalf("bad upsample values: %v", y.Data)
	}
}

// Upsample backward must be the adjoint of upsample forward.
func TestUpsampleBackwardAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randTensor(rng, 2, 3, 4)
	gy := randTensor(rng, 2, 6, 8)
	lhs := dot(UpsampleNearest2xWS(nil, x), gy)
	rhs := dot(x, UpsampleNearest2xBackwardWS(nil, gy))
	if math.Abs(lhs-rhs) > 1e-4*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint violated: %g vs %g", lhs, rhs)
	}
}

func TestConcatAndSplit(t *testing.T) {
	a := Full(1, 2, 3, 3)
	b := Full(2, 1, 3, 3)
	c := Concat(a, b)
	if c.Dim(0) != 3 {
		t.Fatalf("Concat channels = %d", c.Dim(0))
	}
	if c.At(0, 0, 0) != 1 || c.At(2, 0, 0) != 2 {
		t.Fatal("Concat values wrong")
	}
	parts := SplitChannelsWS(nil, c, []int{2, 1})
	assertClose(t, parts[0], a, 0)
	assertClose(t, parts[1], b, 0)
}

func TestConcatSpatialMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Concat mismatch")
	Concat(New(1, 2, 2), New(1, 3, 3))
}

// Property: convolution is linear in the input.
func TestQuickConvLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x1 := randTensor(rng, 2, 6, 6)
		x2 := randTensor(rng, 2, 6, 6)
		w := randTensor(rng, 2, 2, 3, 3)
		s := Spec(3, 3)
		lhs := Conv2D(Add(x1, x2), w, nil, s)
		rhs := Add(Conv2D(x1, w, nil, s), Conv2D(x2, w, nil, s))
		return maxAbsDiff(lhs, rhs) < 1e-3
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func dot(a, b *Tensor) float64 {
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// TestIm2colReusedDestinationMatchesFresh: Im2col historically zeroed the
// whole reuse destination before lowering; it now writes zero padding
// explicitly instead, so a reused (dirty) destination must produce output
// bitwise identical to a fresh one — across padded, strided and asymmetric
// kernels, where the padding regions differ.
func TestIm2colReusedDestinationMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	specs := []ConvSpec{
		Spec(3, 3),
		Spec(3, 3).WithStride(2),
		Spec(3, 1),
		Spec(1, 3),
		Spec(1, 1),
		{KH: 3, KW: 3, SH: 2, SW: 1, PH: 2, PW: 0}, // extra padding rows
	}
	for _, s := range specs {
		x := randTensor(rng, 3, 12, 10)
		fresh := Im2col(x, s, nil)

		// Poison a correctly-sized reuse buffer, then lower into it.
		dirty := New(fresh.Dim(0), fresh.Dim(1))
		dirty.Fill(-123.5)
		reused := Im2col(x, s, dirty)
		if reused != dirty {
			t.Fatalf("spec %+v: Im2col did not reuse the destination", s)
		}
		for i := range fresh.Data {
			if fresh.Data[i] != reused.Data[i] {
				t.Fatalf("spec %+v: reused dst differs from fresh at %d: %v vs %v",
					s, i, reused.Data[i], fresh.Data[i])
			}
		}

		// A workspace GetDirty destination (arbitrary stale contents) must
		// behave the same.
		ws := NewWorkspaceOn(NewPool())
		poison := ws.GetDirty(fresh.Dim(0), fresh.Dim(1))
		poison.Fill(77)
		ws.Reset()
		leased := ws.GetDirty(fresh.Dim(0), fresh.Dim(1))
		got := Im2col(x, s, leased)
		for i := range fresh.Data {
			if fresh.Data[i] != got.Data[i] {
				t.Fatalf("spec %+v: workspace dst differs from fresh at %d", s, i)
			}
		}
	}
}
