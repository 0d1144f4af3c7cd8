// Package metrics implements the evaluation metrics of the paper: per-class
// Intersection-over-Union and mean IoU (eq. 1 of §3.2), plus pixel accuracy
// and a reusable confusion matrix.
package metrics

import "fmt"

// ConfusionMatrix accumulates pixel-level predictions against labels for a
// fixed number of classes.
type ConfusionMatrix struct {
	NumClasses int
	counts     []int64 // counts[label*NumClasses + pred]
}

// NewConfusionMatrix returns an empty matrix for n classes.
func NewConfusionMatrix(n int) *ConfusionMatrix {
	return &ConfusionMatrix{NumClasses: n, counts: make([]int64, n*n)}
}

// Add accumulates one prediction/label pair of masks. Both slices hold class
// indices and must have equal length.
func (cm *ConfusionMatrix) Add(pred, label []int32) {
	if len(pred) != len(label) {
		panic(fmt.Sprintf("metrics: pred len %d != label len %d", len(pred), len(label)))
	}
	n := int32(cm.NumClasses)
	for i, l := range label {
		p := pred[i]
		if l < 0 || l >= n || p < 0 || p >= n {
			panic(fmt.Sprintf("metrics: class out of range: pred=%d label=%d n=%d", p, l, n))
		}
		cm.counts[int(l)*cm.NumClasses+int(p)]++
	}
}

// Reset clears all accumulated counts.
func (cm *ConfusionMatrix) Reset() {
	clear(cm.counts)
}

// IoU returns the intersection-over-union for class c, and ok=false when the
// class appears in neither prediction nor label (undefined IoU).
func (cm *ConfusionMatrix) IoU(c int) (iou float64, ok bool) {
	var inter, predTotal, labelTotal int64
	inter = cm.counts[c*cm.NumClasses+c]
	for k := 0; k < cm.NumClasses; k++ {
		labelTotal += cm.counts[c*cm.NumClasses+k]
		predTotal += cm.counts[k*cm.NumClasses+c]
	}
	union := predTotal + labelTotal - inter
	if union == 0 {
		return 0, false
	}
	return float64(inter) / float64(union), true
}

// MeanIoU averages IoU over the classes present in the label (the paper
// averages over "each class in the ground truth label", §3.2). Classes that
// never appear in the label are excluded even if predicted.
func (cm *ConfusionMatrix) MeanIoU() float64 {
	var sum float64
	var n int
	for c := 0; c < cm.NumClasses; c++ {
		var labelTotal int64
		for k := 0; k < cm.NumClasses; k++ {
			labelTotal += cm.counts[c*cm.NumClasses+k]
		}
		if labelTotal == 0 {
			continue
		}
		iou, ok := cm.IoU(c)
		if !ok {
			continue
		}
		sum += iou
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanIoU computes mean IoU between two masks directly, for callers that do
// not need a persistent confusion matrix (e.g. the per-key-frame metric in
// Algorithm 1).
func MeanIoU(pred, label []int32, numClasses int) float64 {
	cm := NewConfusionMatrix(numClasses)
	cm.Add(pred, label)
	return cm.MeanIoU()
}
