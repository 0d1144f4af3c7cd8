package experiments

import (
	"bytes"
	"flag"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

// PretrainConfig controls student pre-training on synthetic "COCO-like"
// data: frames drawn from all seven categories with fresh seeds, so the
// student sees every class and background without memorising any stream.
type PretrainConfig struct {
	Steps     int     // optimisation steps
	LR        float32 // Adam learning rate
	Seed      int64
	FramesPer int // frames drawn per category generator before reseeding
}

// DefaultPretrain returns the recipe pretrained.bin was trained with.
func DefaultPretrain() PretrainConfig {
	return PretrainConfig{Steps: 260, LR: 0.004, Seed: 7, FramesPer: 4}
}

// Pretrain trains a fresh student on mixed-category synthetic frames with
// teacher (oracle) pseudo-labels and returns it. The resulting student has
// moderate general skill — by design far below the per-stream THRESHOLD, as
// the paper's "Wild" row demonstrates (mean mIoU ≈ 17%).
func Pretrain(cfg PretrainConfig) (*nn.Student, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	student := nn.NewStudent(nn.DefaultStudentConfig(), rng)
	// Pre-training updates everything, on the distiller's training step.
	d := core.NewDistiller(core.Config{Partial: false, LearningRate: cfg.LR, GradClipNorm: 10}, student)
	tch := teacher.NewOracle(cfg.Seed + 1)

	// Round-robin generators over all categories, reseeded periodically so
	// the student never overfits one scene (that is the job of shadow
	// education at run time).
	gens := make([]*video.Generator, len(video.Categories))
	reseed := func(epoch int64) error {
		for i, cat := range video.Categories {
			g, err := video.NewGenerator(video.CategoryConfig(cat, cfg.Seed+epoch*31+int64(i)))
			if err != nil {
				return err
			}
			gens[i] = g
		}
		return nil
	}
	if err := reseed(0); err != nil {
		return nil, err
	}

	framesSinceSeed := 0
	var epoch int64
	for stepN := 0; stepN < cfg.Steps; stepN++ {
		g := gens[stepN%len(gens)]
		// Space samples a second apart so pre-training sees scene variety,
		// not near-duplicate frames.
		g.Skip(29)
		frame := g.Next()
		d.Step(frame, tch.Infer(frame))

		framesSinceSeed++
		if framesSinceSeed >= cfg.FramesPer*len(gens) {
			framesSinceSeed = 0
			epoch++
			if err := reseed(epoch); err != nil {
				return nil, err
			}
		}
	}
	return student, nil
}

var update = flag.Bool("update", false, "rewrite pretrained.bin from Pretrain(DefaultPretrain()) (avx2+fma kernels only)")

// pretrainedHash is nn.HashParams of Pretrain(DefaultPretrain()) on the
// avx2+fma kernels: the base every host decodes from pretrained.bin.
const pretrainedHash = 0x29041b5f5c9e8a90

const regenerate = "go test ./internal/experiments -run '^TestEmbeddedPretrainedCheckpoint$' -update, then set pretrainedHash to the hash it logs"

// TestEmbeddedPretrainedCheckpoint pins the embedded checkpoint: on every
// ISA it decodes to pretrainedHash and SharedPretrained hands out exactly
// that student, and on avx2+fma — the kernels it was generated on —
// training the default recipe still reproduces it, so a change to training
// numerics cannot leave a stale file behind.
func TestEmbeddedPretrainedCheckpoint(t *testing.T) {
	isa := tensor.VecKernelISA()
	if *update {
		if isa != "avx2+fma" {
			t.Fatalf("-update on %s kernels: pretrained.bin is generated on avx2+fma", isa)
		}
		st, err := Pretrain(DefaultPretrain())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nn.WriteNamed(&buf, st.Params.All()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pretrained.bin", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote pretrained.bin (%d bytes, hash %#x); set pretrainedHash to it", buf.Len(), nn.HashParams(st.Params.All()))
		return
	}

	st, err := loadPretrained()
	if err != nil {
		t.Fatalf("%v; regenerate with: %s", err, regenerate)
	}
	if got := nn.HashParams(st.Params.All()); got != pretrainedHash {
		t.Fatalf("embedded checkpoint hashes %#x, want %#x; regenerate with: %s", got, pretrainedHash, regenerate)
	}
	shared, err := SharedPretrained()
	if err != nil {
		t.Fatal(err)
	}
	if got := nn.HashParams(shared.Params.All()); got != pretrainedHash {
		t.Fatalf("SharedPretrained hashes %#x, the embedded checkpoint %#x: the process runs a student that does not ship", got, pretrainedHash)
	}
	if isa != "avx2+fma" || raceEnabled {
		t.Logf("training comparison skipped on %s kernels (race detector: %v)", isa, raceEnabled)
		return
	}
	trained, err := Pretrain(DefaultPretrain())
	if err != nil {
		t.Fatal(err)
	}
	if got := nn.HashParams(trained.Params.All()); got != pretrainedHash {
		t.Fatalf("Pretrain(DefaultPretrain()) hashes %#x, the embedded checkpoint %#x: training numerics changed; regenerate with: %s",
			got, pretrainedHash, regenerate)
	}
}

// partialDistillHash is nn.HashParams of the student after
// TestPartialDistillationBitsPinned's 40 key frames, per kernel set. The
// portable hash holds on amd64 only: other architectures' compilers may
// fuse the portable kernels' multiply-adds.
var partialDistillHash = map[string]uint64{
	"avx2+fma": 0x66bdf628ebd93b30,
	"portable": 0xcfee394555cda7b2,
}

// keyFrameBytesHash is the FNV-1a hash of TestKeyFrameBytesPinned's 8
// drone key-frame bodies.
const keyFrameBytesHash = 0x8546b7855284de4b

// TestKeyFrameBytesPinned pins the key frame's wire bytes: the bodies
// transport.EncodeKeyFrame writes for 8 frames of the drone stream (one
// every 9th), whose G and B planes predict from the plane before. Decoding
// checks that the bits come back; this checks that the predictions stay
// the same function of them — a compiler fusing the cross predictor's
// product into an add, or any other change to its arithmetic, moves the
// bytes. It holds on amd64, where the rendered frames are pinned too.
func TestKeyFrameBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned on amd64 (have %s)", runtime.GOARCH)
	}
	vcfg, err := video.NamedVideo("drone", 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := video.NewGenerator(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := range 8 {
		frame := g.Next()
		h.Write(transport.EncodeKeyFrame(transport.KeyFrame{FrameIndex: uint32(9 * i), Image: frame.Image, Label: frame.Label, Seq: uint64(i + 1)}))
		g.Skip(8)
	}
	if got := h.Sum64(); got != keyFrameBytesHash {
		t.Fatalf("8 drone key frames encode to bytes hashing %#x, want %#x: the key-frame coding changed", got, uint64(keyFrameBytesHash))
	}
}

// TestPartialDistillationBitsPinned pins run-time partial distillation: the
// embedded student under core.DefaultConfig, trained on 40 key frames of the
// drone stream (one every 9th frame) against oracle labels. That run feeds
// the loss logits whose gaps push exponentials outside the fast range, so a
// kernel that changes any bit of the loss, the backward or the update fails
// here before it can move a benchmark. It runs on both kernel sets
// (SHADOWTUTOR_NOAVX=1 selects the portable one).
func TestPartialDistillationBitsPinned(t *testing.T) {
	isa := tensor.VecKernelISA()
	if raceEnabled || (isa == "portable" && runtime.GOARCH != "amd64") {
		t.Skipf("pinned on amd64 without the race detector (have %s on %s, race %v)", isa, runtime.GOARCH, raceEnabled)
	}
	st, err := SharedPretrained()
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDistiller(core.DefaultConfig(), st)
	vcfg, err := video.NamedVideo("drone", 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := video.NewGenerator(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	tch := teacher.NewOracle(12)
	for i := 0; i < 40; i++ {
		frame := g.Next()
		d.Train(frame, tch.Infer(frame))
		g.Skip(8)
	}
	if got := nn.HashParams(st.Params.All()); got != partialDistillHash[isa] {
		t.Fatalf("partial distillation on %s kernels hashes %#x, want %#x: training numerics changed", isa, got, partialDistillHash[isa])
	}
}
