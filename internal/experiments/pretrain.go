// Package experiments contains one driver per table/figure of the paper's
// evaluation section, plus the shared student pre-training step ("public
// education", §4.1.3: the student "should also be pre-trained on relevant
// data ... Pre-training can be expensive, but it is a one-time cost").
package experiments

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/teacher"
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

// DefaultPretrain returns the configuration used by all experiments.
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

// pretrainedBin is Pretrain(DefaultPretrain()) on the avx2+fma kernels, in
// nn.WriteNamed form; TestEmbeddedPretrainedCheckpoint pins and regenerates it.
//
//go:embed pretrained.bin
var pretrainedBin []byte

var (
	pretrainOnce sync.Once
	pretrained   *nn.Student
	pretrainErr  error
)

// SharedPretrained returns a process-wide pre-trained student checkpoint;
// every experiment clones it, mirroring the paper's protocol ("Every
// ShadowTutor experiment, whether partial or full distillation, begins from
// the same pre-trained student checkpoint", §6). The first call decodes the
// embedded default in milliseconds, so every host holds the same base; a
// positive SHADOWTUTOR_PRETRAIN_STEPS trains that many steps through Pretrain
// instead, and any other value is an error. Subsequent calls are free.
func SharedPretrained() (*nn.Student, error) {
	pretrainOnce.Do(func() {
		cfg, err := pretrainConfig(os.Getenv("SHADOWTUTOR_PRETRAIN_STEPS"))
		if err == nil && cfg == DefaultPretrain() {
			pretrained, err = loadPretrained()
		} else if err == nil {
			pretrained, err = Pretrain(cfg)
		}
		pretrainErr = err
	})
	if pretrainErr != nil {
		return nil, pretrainErr
	}
	return pretrained.Clone(), nil
}

// pretrainConfig resolves a SHADOWTUTOR_PRETRAIN_STEPS value: empty means
// DefaultPretrain, anything else must be a positive step count.
func pretrainConfig(steps string) (PretrainConfig, error) {
	cfg := DefaultPretrain()
	if steps == "" {
		return cfg, nil
	}
	n, err := strconv.Atoi(steps)
	if err != nil || n <= 0 {
		return cfg, fmt.Errorf("experiments: SHADOWTUTOR_PRETRAIN_STEPS=%q is not a positive integer", steps)
	}
	cfg.Steps = n
	return cfg, nil
}

// loadPretrained decodes the embedded checkpoint onto a fresh student.
func loadPretrained() (*nn.Student, error) {
	s := nn.NewStudentForWire()
	params, err := nn.ReadNamed(bytes.NewReader(pretrainedBin))
	if err == nil {
		err = nn.ApplyNamed(s.Params, params)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: embedded pretrained checkpoint: %w", err)
	}
	return s, nil
}

// FreshStudentFor clones the shared checkpoint and applies the distillation
// mode — the entry point every experiment uses.
func FreshStudentFor(cfg core.Config) (*nn.Student, error) {
	s, err := SharedPretrained()
	if err != nil {
		return nil, err
	}
	s.SetPartial(cfg.Partial)
	return s, nil
}
