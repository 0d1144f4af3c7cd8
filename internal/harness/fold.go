package harness

import (
	"strings"

	"repro/internal/experiments"
)

// This file registers the pre-harness experiment runners — the DESIGN.md
// ablation suite and the §8 diff-compression study — as scenarios: each
// returns typed rows, which become Metrics here and text tables in
// `stbench -ablations`, so `stbench -scenario 'ablation/*'` emits the same
// structured metrics as the end-to-end families.

// slug turns a row label into a stable scenario suffix:
// "adaptive (Algorithm 2)" → "adaptive-algorithm-2".
func slug(label string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(label) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

func suiteFor(spec Spec) *experiments.Suite {
	return experiments.NewSuite(experiments.Options{
		Frames:    spec.Frames,
		EvalEvery: spec.EvalEvery,
		Seed:      spec.Seed,
	})
}

func runAblationStride(spec Spec) ([]Metrics, error) {
	rows, err := suiteFor(spec).AblationStride()
	var out []Metrics
	for _, r := range rows {
		out = append(out, Metrics{Scenario: "ablation/stride/" + slug(r.Policy),
			MeanIoU: r.MeanIoU, KeyFrameRate: r.KeyFrameRatio, AggregateFPS: r.FPS})
	}
	return out, err
}

func runAblationAsync(spec Spec) ([]Metrics, error) {
	rows, err := suiteFor(spec).AblationAsync()
	labels := experiments.BandwidthLabels()
	var out []Metrics
	for _, r := range rows {
		m := Metrics{Scenario: "ablation/async/" + slug(r.Mode), Extra: map[string]float64{}}
		for i, fps := range r.FPS {
			m.Extra["fps_"+strings.ToLower(labels[i])] = fps
		}
		out = append(out, m)
	}
	return out, err
}

func runAblationFreeze(spec Spec) ([]Metrics, error) {
	rows, err := suiteFor(spec).AblationFreezePoint()
	var out []Metrics
	for _, r := range rows {
		out = append(out, Metrics{Scenario: "ablation/freeze/" + slug(r.FrozenThrough),
			MeanIoU: r.MeanIoU, MeanDistillSteps: r.MeanSteps,
			Extra: map[string]float64{"trainable_pct": r.TrainablePct}})
	}
	return out, err
}

func runAblationLoss(spec Spec) ([]Metrics, error) {
	rows, err := suiteFor(spec).AblationLossWeighting()
	var out []Metrics
	for _, r := range rows {
		out = append(out, Metrics{Scenario: "ablation/loss/" + slug(r.Loss),
			MeanIoU: r.MeanIoU, MeanDistillSteps: r.MeanSteps})
	}
	return out, err
}

func runCompression(Spec) ([]Metrics, error) {
	rows, err := experiments.AblationCompression()
	var out []Metrics
	for _, r := range rows {
		out = append(out, Metrics{Scenario: "compression/diff-codecs/" + slug(r.Codec), Codec: r.Codec,
			Extra: map[string]float64{
				"diff_bytes":    float64(r.Bytes),
				"vs_raw":        r.VsRaw,
				"max_abs_error": r.MaxAbsError,
			}})
	}
	return out, err
}
