package metrics_test

import (
	"fmt"

	"repro/internal/metrics"
)

// Mean IoU (eq. 1 of the paper) averaged over the classes present in the
// ground-truth label.
func ExampleConfusionMatrix_MeanIoU() {
	cm := metrics.NewConfusionMatrix(3)
	pred := []int32{0, 1, 1, 1}
	label := []int32{0, 0, 1, 1}
	cm.Add(pred, label)
	// class 0: intersection 1, union 2 → 0.50
	// class 1: intersection 2, union 3 → 0.67
	fmt.Printf("mIoU = %.3f\n", cm.MeanIoU())
	// Output:
	// mIoU = 0.583
}

// The helper computes a one-shot mIoU without keeping a matrix around — the
// per-key-frame metric of Algorithm 1.
func ExampleMeanIoU() {
	label := []int32{2, 2, 0, 1}
	fmt.Printf("perfect: %.1f\n", metrics.MeanIoU(label, label, 3))
	fmt.Printf("all bg:  %.2f\n", metrics.MeanIoU([]int32{0, 0, 0, 0}, label, 3))
	// Output:
	// perfect: 1.0
	// all bg:  0.08
}
