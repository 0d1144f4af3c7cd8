package nn_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/video"
)

// Every gradient-free pass is the one body of the network with activations
// handed back as it goes: the masks of Infer, Prefix + InferFrom and
// InferBatch must equal the argmax of a whole ForwardFrom pass on a
// workspace-free tape — where nothing is ever recycled — frame after frame, with Distiller.Train steps on the same student in
// between (training passes, metric passes and the prefix share the pools the
// inference leases come from). A value freed while an op still reads it is
// nil, and one freed while a later op's dirty lease aliases it is garbage;
// either fails here. On the reference oracle, pinned through the student,
// the comparison pass runs on a fresh workspace over a private pool: only
// that pass's own frees recycle there, and vec's run holds those to the
// workspace-free tape.
func TestGradientFreePassesMatchForwardBitwise(t *testing.T) {
	for _, b := range []struct {
		name string
		bk   tensor.Backend // nil: vec
	}{{"reference", tensor.Reference}, {"vec", nil}} {
		t.Run(b.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Threshold = 0.999 // every Train call takes its steps
			cfg.MaxUpdates = 2
			s := nn.NewStudent(nn.DefaultStudentConfig(), rand.New(rand.NewSource(11)))
			s.SetBackend(b.bk)
			dist := core.NewDistiller(cfg, s)
			// With nothing frozen the prefix is empty: bare's Prefix is the
			// image boundary a whole pass of s starts from.
			bare := s.Clone()
			bare.SetPartial(false)
			forward := func(img *tensor.Tensor) *tensor.Tensor {
				fc := nn.NewForwardCtxWS(false, nil)
				if b.bk != nil {
					fc = nn.NewForwardCtxWS(false, tensor.NewWorkspaceOn(tensor.NewPool()).SetBackend(b.bk))
				}
				return s.ForwardFrom(fc, bare.Prefix(img)).Value
			}
			gen, err := video.NewGenerator(video.CategoryConfig(video.Category{Camera: video.Moving, Scenery: video.Street}, 13))
			if err != nil {
				t.Fatal(err)
			}

			prev := gen.Next()
			for i := 0; i < 4; i++ {
				frame := gen.Next()
				want := forward(frame.Image)
				wantMask := want.ArgmaxChannel(nil)
				wantPrev := forward(prev.Image).ArgmaxChannel(nil)

				if !slices.Equal(s.Infer(frame.Image), wantMask) {
					t.Fatalf("frame %d: Infer mask differs from Forward's argmax", i)
				}
				if !slices.Equal(s.InferFrom(s.Prefix(frame.Image)), wantMask) {
					t.Fatalf("frame %d: InferFrom mask differs from Forward's argmax", i)
				}
				masks := s.InferBatch([]*tensor.Tensor{frame.Image, prev.Image})
				if !slices.Equal(masks[0], wantMask) || !slices.Equal(masks[1], wantPrev) {
					t.Fatalf("frame %d: InferBatch masks differ from Forward's argmax per frame", i)
				}

				if res := dist.Train(frame, frame.Label); res.Steps == 0 {
					t.Fatal("Train took no step; the interleaving is vacuous")
				}
				prev = frame
			}
		})
	}
}
