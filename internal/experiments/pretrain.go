// Package experiments contains one driver per table/figure of the paper's
// evaluation section, plus the shared pre-trained student ("public
// education", §4.1.3: the student "should also be pre-trained on relevant
// data ... Pre-training can be expensive, but it is a one-time cost").
package experiments

import (
	"bytes"
	_ "embed"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/nn"
)

// pretrainedBin is the default pre-training recipe's student, trained once on
// the avx2+fma kernels, in nn.WriteNamed form; TestEmbeddedPretrainedCheckpoint
// holds the recipe, pins the file and regenerates it.
//
//go:embed pretrained.bin
var pretrainedBin []byte

// SharedPretrained returns a process-wide pre-trained student checkpoint;
// every experiment clones it, mirroring the paper's protocol ("Every
// ShadowTutor experiment, whether partial or full distillation, begins from
// the same pre-trained student checkpoint", §6). The first call decodes the
// embedded checkpoint in milliseconds, so every host and every test holds
// the same base; subsequent calls are free.
func SharedPretrained() (*nn.Student, error) {
	s, err := loadPretrainedOnce()
	if err != nil {
		return nil, err
	}
	return s.Clone(), nil
}

var loadPretrainedOnce = sync.OnceValues(loadPretrained)

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
