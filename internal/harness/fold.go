package harness

import (
	"strings"

	"repro/internal/experiments"
)

// This file registers the §8 diff-compression study as a scenario: its
// typed rows become Metrics here, so `stbench -scenario
// 'compression/*'` emits the same structured metrics as the end-to-end
// families. The ablation suite has one front end, `stbench -ablations`.

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
