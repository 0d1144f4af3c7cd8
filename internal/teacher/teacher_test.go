package teacher

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/video"
)

func sampleFrame(t *testing.T) video.Frame {
	t.Helper()
	g, err := video.NewGenerator(video.CategoryConfig(video.Category{Camera: video.Fixed, Scenery: video.Animals}, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g.Next()
}

func TestOracleCloseToGroundTruth(t *testing.T) {
	f := sampleFrame(t)
	o := NewOracle(1)
	pred := o.Infer(f)
	if len(pred) != len(f.Label) {
		t.Fatalf("mask length %d", len(pred))
	}
	iou := metrics.MeanIoU(pred, f.Label, video.NumClasses)
	if iou < 0.7 {
		t.Fatalf("oracle mIoU vs GT = %v; noise model too strong", iou)
	}
	if iou == 1 {
		t.Fatal("oracle with default noise should not be exact")
	}
}

func TestOracleNoiseOnlyAtBoundaries(t *testing.T) {
	f := sampleFrame(t)
	o := NewOracle(2)
	o.MissRate = 0
	pred := o.Infer(f)
	w := f.Image.Dim(2)
	h := f.Image.Dim(1)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			i := y*w + x
			if pred[i] == f.Label[i] {
				continue
			}
			// A flipped pixel must be adjacent to a different GT class.
			c := f.Label[i]
			if f.Label[i-1] == c && f.Label[i+1] == c && f.Label[i-w] == c && f.Label[i+w] == c {
				t.Fatalf("interior pixel (%d,%d) flipped", y, x)
			}
		}
	}
}

func TestOracleZeroNoiseIsExact(t *testing.T) {
	f := sampleFrame(t)
	o := NewOracle(3)
	o.BoundaryNoise = 0
	o.MissRate = 0
	pred := o.Infer(f)
	for i := range pred {
		if pred[i] != f.Label[i] {
			t.Fatal("zero-noise oracle must return ground truth")
		}
	}
}

func TestOraclePanicsWithoutLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for label-free frame")
		}
	}()
	NewOracle(4).Infer(video.Frame{Image: tensor.New(3, 8, 8)})
}

func TestOracleName(t *testing.T) {
	if NewOracle(0).Name() != "oracle" {
		t.Fatal("oracle name")
	}
}

func TestCNNTeacherInferShape(t *testing.T) {
	ct := NewCNNTeacher(5)
	if ct.Name() != "cnn" {
		t.Fatal("cnn teacher name")
	}
	f := video.Frame{Image: tensor.New(3, 16, 16)}
	mask := ct.Infer(f)
	if len(mask) != 256 {
		t.Fatalf("cnn mask length %d", len(mask))
	}
}

func TestCNNTeacherWorksWithoutLabels(t *testing.T) {
	// Unlike the oracle, the CNN teacher must handle label-free frames —
	// it is the proof that nothing structural depends on the GT
	// side-channel.
	ct := NewCNNTeacher(6)
	f := sampleFrame(t)
	f.Label = nil
	mask := ct.Infer(f)
	for _, c := range mask {
		if c < 0 || c >= video.NumClasses {
			t.Fatalf("class %d out of range", c)
		}
	}
}

func TestOracleDeterministicPerSeedSequence(t *testing.T) {
	f := sampleFrame(t)
	a := NewOracle(7).Infer(f)
	b := NewOracle(7).Infer(f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("oracle must be deterministic for equal seeds")
		}
	}
}

// Regression: labels arrive raw off the wire, so classes outside
// [0, NumClasses) must degrade gracefully (passed through, never missed)
// instead of panicking the shared server teacher.
func TestOracleToleratesOutOfRangeLabels(t *testing.T) {
	o := NewOracle(3)
	o.MissRate = 1 // force the miss-application loop to run
	img := tensor.New(3, 2, 2)
	f := video.Frame{Image: img, Label: []int32{1, 99, -4, 1}}
	out := o.Infer(f)
	if len(out) != 4 {
		t.Fatalf("mask length %d", len(out))
	}
	if out[1] != 99 || out[2] != -4 {
		t.Fatalf("out-of-range labels must pass through unmodified: %v", out)
	}
}
