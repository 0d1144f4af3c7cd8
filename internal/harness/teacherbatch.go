package harness

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/video"
)

// TeacherBatchSpeedup times the CNN teacher's fused batched forward against
// the equivalent per-frame Infer loop on the same frames under the spec's
// compute backend, returning best-of-rounds milliseconds per frame for both
// paths (scheduler preemptions and cache evictions only ever add time, so
// the per-round minimum estimates intrinsic cost with far less variance
// than the mean — and applies to both sides alike, keeping the ratio fair).
// It follows the warm-up-then-measure protocol of DistillStepMS: the
// warm-up rounds size the workspace pools, so the measurement sees the
// steady serving state where no kernel allocates.
func TeacherBatchSpeedup(spec Spec, batch int) (loopMS, fusedMS float64, err error) {
	spec.setDefaults()
	bk, err := tensor.BackendByName(spec.Backend)
	if err != nil {
		return 0, 0, err
	}
	vcfg, err := workloadConfig(spec, 0)
	if err != nil {
		return 0, 0, err
	}
	gen, err := video.NewGenerator(vcfg)
	if err != nil {
		return 0, 0, err
	}
	tch := teacher.NewCNNTeacher(spec.Seed + 41)
	tch.SetBackend(bk)

	frames := make([]video.Frame, batch)
	for i := range frames {
		frames[i] = gen.Next()
	}

	for i := 0; i < 2; i++ { // warm-up: pools, branch predictors
		tch.InferBatch(frames)
		tch.Infer(frames[0])
	}

	// GC stays off while timing so a collection cannot dump the workspace
	// pool classes mid-round and charge cold re-leases to one side of the
	// ratio (the same guard DistillAllocsPerStep uses).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const rounds = 5
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for _, f := range frames {
			tch.Infer(f)
		}
		ms := time.Since(start).Seconds() * 1e3 / float64(batch)
		if r == 0 || ms < loopMS {
			loopMS = ms
		}
	}

	for r := 0; r < rounds; r++ {
		start := time.Now()
		tch.InferBatch(frames)
		ms := time.Since(start).Seconds() * 1e3 / float64(batch)
		if r == 0 || ms < fusedMS {
			fusedMS = ms
		}
	}

	if fusedMS <= 0 {
		return 0, 0, fmt.Errorf("harness: degenerate batched teacher timing (%.3fms)", fusedMS)
	}
	return loopMS, fusedMS, nil
}
