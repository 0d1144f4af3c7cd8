package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/video"
)

// A weight has no derived state to go stale: whichever way it is written,
// the next forward reads the tensor itself. The write used here is the one
// no invalidation hook can see — a plain w.Data[i] = v, what
// autodiff/gradcheck.go and every numeric-gradient test do — so every
// mediated write path (optimizer steps, CopyFrom, checkpoint loads, resolved
// diffs) is covered by it. Each consumer first runs on the old weights, so
// a kernel that kept anything from that call would serve it afterwards; the
// result after the write must be bit-equal to the same call on a copy of
// the written weights that no kernel has seen, and must differ from the
// result before it, or the check proves nothing.
func TestBatchedInferenceSeesEveryWeightUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(2101))
	fill := func(ts ...*tensor.Tensor) {
		for _, x := range ts {
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
		}
	}
	// negate overwrites every convolution weight element by element.
	negate := func(s *nn.Student) {
		for _, p := range s.Params.All() {
			if p.Value.Rank() != 4 {
				continue
			}
			for i, v := range p.Value.Data {
				p.Value.Data[i] = -v
			}
		}
	}
	flatten := func(masks [][]int32) []float32 {
		var out []float32
		for _, m := range masks {
			for _, class := range m {
				out = append(out, float32(class))
			}
		}
		return out
	}
	imgs := make([]*tensor.Tensor, 3)
	frames := make([]video.Frame, len(imgs))
	for i := range imgs {
		imgs[i] = tensor.New(3, 16, 24)
		fill(imgs[i])
		frames[i] = video.Frame{Image: imgs[i]}
	}

	// Each case returns the consumer's output on the live weights and on a
	// never-used copy of them, after applying write when it is set.
	type outputs struct{ live, fresh []float32 }
	convCase := func() func(write bool) outputs {
		x := tensor.New(3, 9, 11)
		w, b := tensor.New(5, 3, 3, 3), tensor.New(5)
		fill(x, w, b)
		ws := tensor.NewWorkspace()
		run := func(w *tensor.Tensor) []float32 {
			return tensor.Conv2DWS(ws, x, w, b, tensor.Spec(3, 3)).Data
		}
		return func(write bool) outputs {
			if write {
				for i := range w.Data {
					w.Data[i] = -w.Data[i]
				}
			}
			return outputs{run(w), run(w.Clone())}
		}
	}
	for _, c := range []struct {
		name string
		run  func(write bool) outputs
	}{
		{"Conv2DWS", convCase()},
		{"Student.InferBatch", func() func(bool) outputs {
			s := tinyStudent(2102)
			return func(write bool) outputs {
				if write {
					negate(s)
				}
				fresh := s.Clone()
				return outputs{flatten(s.InferBatch(imgs)), flatten(fresh.InferBatch(imgs))}
			}
		}()},
		{"CNNTeacher.InferBatch", func() func(bool) outputs {
			tch := teacher.NewCNNTeacher(2103)
			return func(write bool) outputs {
				if write {
					negate(tch.Net)
				}
				fresh := &teacher.CNNTeacher{Net: tch.Net.Clone()}
				return outputs{flatten(tch.InferBatch(frames)), flatten(fresh.InferBatch(frames))}
			}
		}()},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := c.run(false)
			after := c.run(true)
			if slices.Equal(before.live, after.fresh) {
				t.Fatal("the write did not move the output; the check is vacuous")
			}
			if !slices.Equal(after.live, after.fresh) {
				t.Fatal("after a plain Data[i] = v write the forward did not compute with the written weights")
			}
		})
	}
}
