// Package teacher provides the server-side teacher models. The paper uses
// Mask R-CNN (44.3M parameters, pre-trained on COCO); since no Go DNN stack
// at that scale exists, the default teacher is an Oracle that derives its
// pseudo-label from the synthetic generator's ground truth, perturbed by a
// boundary-noise model so it behaves like an imperfect-but-strong network.
// The student only ever consumes the teacher's output mask (§6: "the
// student ... is only interested in the final output of the teacher"), so
// this substitution preserves the distillation code path exactly. A real
// convolutional teacher (CNNTeacher) is also provided and used in tests to
// demonstrate that nothing in the system depends on the oracle shortcut.
package teacher

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/video"
)

// Teacher produces a pseudo-label mask for a frame. Implementations must be
// deterministic given their construction seed.
type Teacher interface {
	// Infer returns the per-pixel class mask (len H*W) for the frame.
	Infer(f video.Frame) []int32
	// Name identifies the teacher in logs and experiment output.
	Name() string
}

// BatchInferrer is a Teacher that also labels a list of frames in one call.
// Nothing in the serving tier calls InferBatch; the interface stays only
// because benchmark/run.go and benchmark/taps.go name it.
type BatchInferrer interface {
	Teacher
	InferBatch(frames []video.Frame) [][]int32
}

// Oracle is the default teacher: ground truth plus boundary dilation/erosion
// noise and occasional small-object misses, mimicking the error profile of
// a strong segmentation network.
type Oracle struct {
	// BoundaryNoise is the probability that a pixel within one pixel of a
	// class boundary flips to its neighbour's class.
	BoundaryNoise float64
	// MissRate is the per-object probability that an object is entirely
	// missed (predicted background), as segmentation networks do for tiny
	// or occluded instances.
	MissRate float64
	rng      *rand.Rand
	scratch  []int32 // reused boundary-noise source copy (Oracle is already
	// single-caller: its rng serialises it behind the shard's teacher lock)
}

// NewOracle returns an oracle teacher with the default noise profile. The
// boundary-flip probability is calibrated for 96×64 frames, where boundary
// pixels are a far larger fraction of each object than at the paper's 720p;
// a stronger noise model would cap the student's achievable metric below
// THRESHOLD and pin the stride controller at MIN_STRIDE.
func NewOracle(seed int64) *Oracle {
	return &Oracle{BoundaryNoise: 0.08, MissRate: 0.005, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Teacher.
func (o *Oracle) Name() string { return "oracle" }

// LabelRequirer is implemented by teachers whose pseudo-label derivation
// needs the wire ground-truth side-channel. Servers probe it at the
// protocol boundary so a label-less key frame is rejected as a session
// error instead of panicking Infer and, with it, the server process.
type LabelRequirer interface {
	RequiresLabel() bool
}

// RequiresLabel implements LabelRequirer: the oracle derives its output
// from the ground truth.
func (o *Oracle) RequiresLabel() bool { return true }

// Infer implements Teacher.
func (o *Oracle) Infer(f video.Frame) []int32 {
	h, w := f.Image.Dim(1), f.Image.Dim(2)
	if len(f.Label) != h*w {
		panic(fmt.Sprintf("teacher: oracle needs the ground-truth label (got %d labels for %dx%d frame); use CNNTeacher for label-free frames", len(f.Label), h, w))
	}
	out := make([]int32, len(f.Label))
	copy(out, f.Label)

	// Decide per-class misses for this frame (objects of a missed class id
	// instance are approximated by class here; instance ids are not
	// tracked, so misses are rare by default).
	// Class sets are walked in ascending class order, NOT map order: rng
	// draws must be consumed deterministically or two oracles with the same
	// seed diverge at random (map iteration order).
	var present, missed [video.NumClasses]bool
	if o.MissRate > 0 {
		for _, c := range f.Label {
			if c != video.Background && c >= 0 && int(c) < video.NumClasses {
				present[c] = true
			}
		}
		anyMissed := false
		for c := range present {
			if present[c] && o.rng.Float64() < o.MissRate {
				missed[c] = true
				anyMissed = true
			}
		}
		if anyMissed {
			for i, c := range out {
				// Labels arrive raw off the wire; out-of-range classes are
				// simply never "missed" rather than crashing the server.
				if c >= 0 && int(c) < video.NumClasses && missed[c] {
					out[i] = video.Background
				}
			}
		}
	}

	// Boundary noise: flip pixels adjacent to a different class.
	if o.BoundaryNoise > 0 {
		if cap(o.scratch) < len(out) {
			o.scratch = make([]int32, len(out))
		}
		src := o.scratch[:len(out)]
		copy(src, out)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				c := src[i]
				// find a 4-neighbour with a different class
				var nb int32 = -1
				if x > 0 && src[i-1] != c {
					nb = src[i-1]
				} else if x < w-1 && src[i+1] != c {
					nb = src[i+1]
				} else if y > 0 && src[i-w] != c {
					nb = src[i-w]
				} else if y < h-1 && src[i+w] != c {
					nb = src[i+w]
				}
				if nb >= 0 && o.rng.Float64() < o.BoundaryNoise {
					out[i] = nb
				}
			}
		}
	}
	return out
}

// InferBatch implements BatchInferrer as the per-frame loop. It is kept
// only because benchmark/run.go and benchmark/taps.go use the oracle as a
// BatchInferrer.
func (o *Oracle) InferBatch(frames []video.Frame) [][]int32 {
	out := make([][]int32, len(frames))
	for i, f := range frames {
		out[i] = o.Infer(f)
	}
	return out
}

// CNNTeacher wraps a (comparatively) large student-architecture network as a
// genuine learned teacher. It exists to prove the distillation path works
// against a real network, and for the ablation that swaps teachers.
type CNNTeacher struct {
	Net  *nn.Student
	name string
}

// NewCNNTeacher builds a CNN teacher with wider channels than the student.
func NewCNNTeacher(seed int64) *CNNTeacher {
	cfg := nn.StudentConfig{
		InChannels: 3, NumClasses: video.NumClasses,
		Stem1: 16, Stem2: 48,
		B1: 48, B2: 96,
		B3: 96, B4: 96,
		B5: 64, B6: 32,
		Head: 32,
	}
	return &CNNTeacher{Net: nn.NewStudent(cfg, rand.New(rand.NewSource(seed))), name: "cnn"}
}

// Name implements Teacher.
func (t *CNNTeacher) Name() string { return t.name }

// SetBackend pins the tensor compute backend used by the teacher network's
// inference (nil reverts to vec). It is kept only because benchmark/taps.go
// calls it.
func (t *CNNTeacher) SetBackend(b tensor.Backend) { t.Net.SetBackend(b) }

// Infer implements Teacher. The mask is a fresh copy owned by the caller: a
// session keeps its mask after it releases the shard's teacher lock, so the
// mask must never alias the network's reusable inference buffers.
func (t *CNNTeacher) Infer(f video.Frame) []int32 {
	return append([]int32(nil), t.Net.Infer(f.Image)...)
}

// InferBatch implements BatchInferrer as the per-frame loop, every mask a
// fresh caller-owned copy as Infer's is. It is kept only because
// benchmark/layers.go and benchmark/taps.go call it.
func (t *CNNTeacher) InferBatch(frames []video.Frame) [][]int32 {
	out := make([][]int32, len(frames))
	for i, f := range frames {
		out[i] = t.Infer(f)
	}
	return out
}
