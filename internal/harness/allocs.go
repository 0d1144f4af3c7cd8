package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/teacher"
	"repro/internal/video"
)

// DistillAllocsPerStep measures steady-state heap allocations per
// distillation optimisation step — the number PR 2's workspace pools drove
// from ~4000 to a few hundred, and the one a regression would quietly undo.
// It runs single-goroutine on a fresh distiller over the spec's workload:
// two warm-up Train calls size every pool, then allocations across the next
// Train calls are divided by the optimisation steps they took. The scenario
// driver calls it after the end-to-end run, when the process is quiet.
func DistillAllocsPerStep(cfg core.Config, spec Spec) (float64, error) {
	spec.setDefaults()
	base, err := experiments.FreshStudentFor(cfg)
	if err != nil {
		return 0, err
	}
	vcfg, err := workloadConfig(spec, 0)
	if err != nil {
		return 0, err
	}
	gen, err := video.NewGenerator(vcfg)
	if err != nil {
		return 0, err
	}
	tch := teacher.NewOracle(spec.Seed + 997)
	d := core.NewDistiller(cfg, base.Clone())

	// One key frame per MinStride frames, as the client would send them.
	nextKF := func() (video.Frame, []int32) {
		gen.Skip(cfg.MinStride - 1)
		f := gen.Next()
		return f, tch.Infer(f)
	}
	for i := 0; i < 2; i++ { // warm-up: size pools, workspaces, snapshots
		f, label := nextKF()
		d.Train(f, label)
	}

	const measured = 4
	frames := make([]video.Frame, measured)
	labels := make([][]int32, measured)
	for i := range frames {
		frames[i], labels[i] = nextKF()
	}
	runtime.GC()
	// GC stays off while measuring so a collection cannot dump sync.Pool
	// classes mid-run and charge the re-leases to the hot path —
	// alloc_test.go's measureAllocs guards the same way. Without this the
	// CI gate on distill_allocs_per_step would flake on GC timing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := 0
	for i := range frames {
		res := d.Train(frames[i], labels[i])
		steps += res.Steps
	}
	runtime.ReadMemStats(&after)
	if steps == 0 {
		return 0, fmt.Errorf("harness: alloc measurement took no optimisation steps (student already above threshold)")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(steps), nil
}
