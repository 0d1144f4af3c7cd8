package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPerfectPredictionIoU(t *testing.T) {
	cm := NewConfusionMatrix(3)
	label := []int32{0, 1, 2, 1}
	cm.Add(label, label)
	if iou := cm.MeanIoU(); iou != 1 {
		t.Fatalf("perfect prediction mIoU = %v", iou)
	}
}

func TestCompletelyWrongIoU(t *testing.T) {
	cm := NewConfusionMatrix(2)
	cm.Add([]int32{1, 1}, []int32{0, 0})
	if iou := cm.MeanIoU(); iou != 0 {
		t.Fatalf("all-wrong mIoU = %v", iou)
	}
}

func TestIoUHandPicked(t *testing.T) {
	// label:  [0 0 1 1], pred: [0 1 1 1]
	// class0: inter 1, union 2 → 0.5; class1: inter 2, union 3 → 2/3.
	cm := NewConfusionMatrix(2)
	cm.Add([]int32{0, 1, 1, 1}, []int32{0, 0, 1, 1})
	iou0, ok := cm.IoU(0)
	if !ok || math.Abs(iou0-0.5) > 1e-9 {
		t.Fatalf("IoU(0) = %v", iou0)
	}
	iou1, _ := cm.IoU(1)
	if math.Abs(iou1-2.0/3) > 1e-9 {
		t.Fatalf("IoU(1) = %v", iou1)
	}
	if m := cm.MeanIoU(); math.Abs(m-(0.5+2.0/3)/2) > 1e-9 {
		t.Fatalf("mIoU = %v", m)
	}
}

func TestMeanIoUIgnoresAbsentClasses(t *testing.T) {
	// Class 2 never appears in the label; predicting it must not add a
	// zero-IoU term for it (the paper averages over ground-truth classes).
	cm := NewConfusionMatrix(3)
	cm.Add([]int32{0, 2}, []int32{0, 0})
	// label classes: {0}. IoU(0): inter 1, union 2 → 0.5.
	if m := cm.MeanIoU(); math.Abs(m-0.5) > 1e-9 {
		t.Fatalf("mIoU = %v, want 0.5", m)
	}
}

func TestIoUUndefinedClass(t *testing.T) {
	cm := NewConfusionMatrix(3)
	cm.Add([]int32{0}, []int32{0})
	if _, ok := cm.IoU(2); ok {
		t.Fatal("IoU of absent class must report ok=false")
	}
}

func TestResetAndCount(t *testing.T) {
	cm := NewConfusionMatrix(2)
	cm.Add([]int32{1}, []int32{0})
	// label 0 predicted as 1, in a 2-class matrix
	if cm.counts[0*2+1] != 1 {
		t.Fatalf("counts = %v", cm.counts)
	}
	cm.Reset()
	if cm.counts[0*2+1] != 0 {
		t.Fatal("Reset failed")
	}
	if cm.MeanIoU() != 0 {
		t.Fatal("empty matrix mIoU must be 0")
	}
}

func TestAddLengthMismatchPanics(t *testing.T) {
	cm := NewConfusionMatrix(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cm.Add([]int32{0}, []int32{0, 1})
}

func TestAddClassOutOfRangePanics(t *testing.T) {
	cm := NewConfusionMatrix(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cm.Add([]int32{5}, []int32{0})
}

func TestMeanIoUHelper(t *testing.T) {
	label := []int32{0, 1, 1, 0}
	if m := MeanIoU(label, label, 2); m != 1 {
		t.Fatalf("helper mIoU = %v", m)
	}
}

// Property: mIoU is always within [0,1] and equals 1 iff pred == label.
func TestQuickIoURange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		c := 2 + rng.Intn(4)
		pred := make([]int32, n)
		label := make([]int32, n)
		same := true
		for i := range pred {
			pred[i] = int32(rng.Intn(c))
			label[i] = int32(rng.Intn(c))
			if pred[i] != label[i] {
				same = false
			}
		}
		m := MeanIoU(pred, label, c)
		if m < 0 || m > 1 {
			return false
		}
		if same && m != 1 {
			return false
		}
		if !same && m == 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: accumulating two batches equals accumulating their union.
func TestQuickConfusionAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		mk := func() ([]int32, []int32) {
			p := make([]int32, n)
			l := make([]int32, n)
			for i := range p {
				p[i] = int32(rng.Intn(3))
				l[i] = int32(rng.Intn(3))
			}
			return p, l
		}
		p1, l1 := mk()
		p2, l2 := mk()
		a := NewConfusionMatrix(3)
		a.Add(p1, l1)
		a.Add(p2, l2)
		b := NewConfusionMatrix(3)
		b.Add(append(append([]int32{}, p1...), p2...), append(append([]int32{}, l1...), l2...))
		return a.MeanIoU() == b.MeanIoU()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}
