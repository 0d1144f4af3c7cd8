package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The stale-panel guard. A conv weight that has been through a batched
// kernel carries packed panels (tensor.Tensor.packed) that are only rebuilt
// when the tensor's version has moved, so every write path that changes
// weights in place must bump it. For each way weights change today this
// test packs the panels (InferBatch), changes the weights that way, and
// requires the next InferBatch to agree with the per-frame Infer loop on
// the new weights: a path that forgets to invalidate serves the old
// student's masks and fails here.

// batchedMasks returns copies of s.InferBatch's masks (the student recycles
// its own buffers).
func batchedMasks(s *nn.Student, imgs []*tensor.Tensor) [][]int32 {
	out := make([][]int32, len(imgs))
	for i, m := range s.InferBatch(imgs) {
		out[i] = append([]int32(nil), m...)
	}
	return out
}

// masksOffLoop counts pixels where masks disagree with the per-frame Infer
// loop by more than a near-tie: where the loop's top-2 logit gap is inside
// the batched path's reassociation band (the tolerance of
// nn.TestInferBatchMatchesLoop) either argmax is a correct answer.
func masksOffLoop(s *nn.Student, imgs []*tensor.Tensor, masks [][]int32) int {
	off := 0
	for i, img := range imgs {
		loop, lg := s.Infer(img)
		var lmax float64
		for _, v := range lg.Data {
			lmax = math.Max(lmax, math.Abs(float64(v)))
		}
		tol := float32(1e-3 * math.Max(1, lmax))
		nc, hw := lg.Dim(0), lg.Dim(1)*lg.Dim(2)
		for p := 0; p < hw; p++ {
			if masks[i][p] == loop[p] {
				continue
			}
			best, second := float32(math.Inf(-1)), float32(math.Inf(-1))
			for ch := 0; ch < nc; ch++ {
				if v := lg.Data[ch*hw+p]; v > best {
					best, second = v, best
				} else if v > second {
					second = v
				}
			}
			if best-second > 2*tol {
				off++
			}
		}
	}
	return off
}

func TestBatchedInferenceSeesEveryWeightUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(1801))
	imgs := make([]*tensor.Tensor, 3)
	for i := range imgs {
		imgs[i] = tensor.New(3, 32, 48)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = rng.Float32()
		}
	}
	// randomGrads pairs every trainable parameter with a gradient large
	// enough that one optimizer step visibly moves the masks.
	randomGrads := func(s *nn.Student) []optim.Param {
		var ps []optim.Param
		for _, p := range nn.TrainableSubset(s.Params) {
			g := tensor.New(p.Value.Shape()...)
			for i := range g.Data {
				g.Data[i] = float32(rng.NormFloat64())
			}
			ps = append(ps, optim.Param{Name: p.Name, Value: p.Value, Grad: g})
		}
		return ps
	}
	other := func() *nn.Student { return tinyStudent(1900 + rng.Int63n(100)) }

	paths := []struct {
		name   string
		mutate func(t *testing.T, s *nn.Student)
	}{
		{"sgd-step", func(t *testing.T, s *nn.Student) { optim.NewSGD(0.3, 0).Step(randomGrads(s)) }},
		{"sgd-momentum-step", func(t *testing.T, s *nn.Student) { optim.NewSGD(0.3, 0.9).Step(randomGrads(s)) }},
		{"adam-step", func(t *testing.T, s *nn.Student) { optim.NewAdam(0.2).Step(randomGrads(s)) }},
		{"tensor-copyfrom", func(t *testing.T, s *nn.Student) {
			for _, p := range other().Params.All() {
				s.Params.Get(p.Name).Value.CopyFrom(p.Value)
			}
		}},
		{"paramset-load", func(t *testing.T, s *nn.Student) { s.Params.CopyValuesFrom(other().Params) }},
		{"decoded-checkpoint", func(t *testing.T, s *nn.Student) {
			codec := &CheckpointCodec{Base: tinyStudent(1803).Params}
			body, err := codec.EncodeBody(other().Params.All())
			if err != nil {
				t.Fatal(err)
			}
			params, err := DecodeCheckpointBody(body, codec.Base)
			if err != nil {
				t.Fatal(err)
			}
			if err := nn.ApplyNamed(s.Params, params); err != nil {
				t.Fatal(err)
			}
		}},
		{"resolved-student-diff", func(t *testing.T, s *nn.Student) {
			// What Client.apply does with a relative diff off the wire.
			ref := nn.CloneNamed(nn.TrainableSubset(s.Params))
			trained := s.Clone()
			optim.NewAdam(0.2).Step(randomGrads(trained))
			body, err := transport.EncodeStudentDiff(transport.StudentDiff{
				Seq: 1, Params: nn.TrainableSubset(trained.Params), Ref: ref,
			})
			if err != nil {
				t.Fatal(err)
			}
			d, err := transport.DecodeStudentDiff(body)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Resolve(s.Params); err != nil {
				t.Fatal(err)
			}
			if err := nn.ApplyNamed(s.Params, d.Params); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			s := tinyStudent(1802)
			s.SetPartial(true)
			before := batchedMasks(s, imgs) // packs every conv weight's panels
			if off := masksOffLoop(s, imgs, before); off != 0 {
				t.Fatalf("before the update: batched masks differ from the Infer loop at %d pixels", off)
			}
			path.mutate(t, s)
			// The update must be one a stale forward would get wrong, or
			// the check below proves nothing.
			if masksOffLoop(s, imgs, before) == 0 {
				t.Fatal("the update did not move the masks; the guard is vacuous")
			}
			if off := masksOffLoop(s, imgs, batchedMasks(s, imgs)); off != 0 {
				t.Fatalf("after the update: batched masks differ from the Infer loop at %d pixels — stale packed panels", off)
			}
		})
	}
}
