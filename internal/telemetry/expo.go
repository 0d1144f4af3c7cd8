package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): `# HELP`/`# TYPE` headers per family,
// cumulative `_bucket{le=...}` series plus `_sum`/`_count` for
// histograms. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, strings.ReplaceAll(f.Help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			if s.Hist != nil {
				if err := writePromHist(w, f.Name, s.Labels, s.Hist); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, braced(s.Labels), formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// withLE splices an `le` label into an existing rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return "{" + labels + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writePromHist(w io.Writer, name, labels string, h *HistSnapshot) error {
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, formatFloat(b)), cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), cum)
	return err
}

// WriteJSON renders the snapshot as indented JSON — the /statusz body.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	snap := r.Snapshot()
	if snap == nil {
		snap = []FamilySnapshot{}
	}
	return enc.Encode(snap)
}
