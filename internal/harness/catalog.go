package harness

import (
	"fmt"
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
)

// familyNotes documents, per scenario family, what the family measures and
// which metrics its CI gate pins. The catalog generator embeds these in
// docs/SCENARIOS.md and the registry-diff test fails when a family is
// registered without a note (or documented without being registered), so
// the catalog cannot silently rot.
var familyNotes = map[string]string{
	"bandwidth-sweep": "§6.4 link matrix on the drone stream: fixed profiles and the wifi-fade trace crossed with client counts and diff codecs. Gates throughput (`aggregate_fps`, `mean_client_fps`), latency percentiles, `mean_iou`, `key_frame_rate` and HD-scaled traffic.",
	"multiclient":     "§1/§7 scaling: N heterogeneous streams sharing one batched teacher. Gates throughput and `teacher_mean_batch` occupancy (informational) plus the standard accuracy/traffic set.",
	"workload":        "Single-stream showcases: CCTV, body-cam, a slow link and the quickstart stream. Gates the standard throughput/accuracy set per stream.",
	"ablation":        "The DESIGN.md ablation suite (stride policy, async updates, freeze points, loss weighting), folded to metrics. Gated via the family's `extra.*` columns (informational unless given tolerances).",
	"compression":     "§8 diff-codec study offline: bytes per diff, compression ratio, reconstruction error as `extra.*` columns.",
	"alloc":           "PR 2 steady-state allocation guard. Gates `distill_allocs_per_step` (lower-better, tight tolerance).",
	"chaos":           "Scripted mid-stream connection faults measuring the resume subsystem. Gates `reconnects` (exact), `resume_replays`/`full_resends` (drift), with recovery latency informational.",
	"fleet":           "Sharded serving fabric: rendezvous placement, admission shedding, cross-shard handoff (the parked session itself moves between shards; nothing is serialised), drains. Gates `shards` (exact), per-shard occupancy and `extra.envelope_shrink_x` (handshake-checkpoint plus resume-full bytes against raw); handoff/shed/migration counts are informational.",
	"loss":            "Packet-level network realism: seeded loss models (uniform, Gilbert-Elliott, trace-threshold), XOR-parity FEC, reordering, and the adaptive link policy. Gates `loss_rate_pct` (regime check) and `extra.adaptive_wins` — the adaptive policy must match or beat the best static codec/FEC config on ≥2 of 3 loss regimes.",
	"soak":            "Long multi-client runs for the nightly -race job; not part of the per-PR smoke matrix.",
}

// smokeRe extracts the default scenario matrix from scripts/bench_smoke.sh:
//
//	SCENARIOS="${SCENARIOS:-glob1,glob2,...}"
var smokeRe = regexp.MustCompile(`SCENARIOS="\$\{SCENARIOS:-([^}]*)\}"`)

// BenchSmokeGlobs parses the CI smoke matrix (the comma-separated scenario
// globs bench_smoke.sh runs by default) out of the script itself, so the
// catalog and its sync test track the real gate, not a copy.
func BenchSmokeGlobs(scriptPath string) ([]string, error) {
	b, err := os.ReadFile(scriptPath)
	if err != nil {
		return nil, err
	}
	m := smokeRe.FindSubmatch(b)
	if m == nil {
		return nil, fmt.Errorf("harness: no SCENARIOS default found in %s", scriptPath)
	}
	var globs []string
	for _, g := range strings.Split(string(m[1]), ",") {
		if g = strings.TrimSpace(g); g != "" {
			globs = append(globs, g)
		}
	}
	if len(globs) == 0 {
		return nil, fmt.Errorf("harness: empty SCENARIOS default in %s", scriptPath)
	}
	return globs, nil
}

// ciGate classifies how one scenario reaches CI: part of the per-PR smoke
// matrix (benchdiff-gated against ci/bench_baseline.json), the nightly
// soak, or on-demand only.
func ciGate(name string, smokeGlobs []string) string {
	for _, g := range smokeGlobs {
		if ok, err := path.Match(g, name); err == nil && (ok || g == name) {
			return "smoke + benchdiff gate"
		}
	}
	if strings.HasPrefix(name, "soak/") {
		return "nightly -race soak"
	}
	return "on-demand"
}

// CatalogMarkdown renders the complete scenario catalog — every registered
// scenario, its spec dimensions as the driver resolves them, and its CI
// gate — as the content of docs/SCENARIOS.md. smokeGlobs is the CI smoke
// matrix (BenchSmokeGlobs). The output is deterministic: families and
// scenarios sort by name.
func CatalogMarkdown(smokeGlobs []string) (string, error) {
	byFamily := map[string][]Scenario{}
	for _, s := range All() {
		byFamily[s.Family()] = append(byFamily[s.Family()], s)
	}
	families := make([]string, 0, len(byFamily))
	for f := range byFamily {
		if _, ok := familyNotes[f]; !ok {
			return "", fmt.Errorf("harness: family %q has no catalog note (add it to familyNotes in catalog.go)", f)
		}
		families = append(families, f)
	}
	for f := range familyNotes {
		if _, ok := byFamily[f]; !ok {
			return "", fmt.Errorf("harness: familyNotes documents %q but no such family is registered", f)
		}
	}
	sort.Strings(families)

	var b strings.Builder
	b.WriteString("# Scenario catalog\n\n")
	b.WriteString("<!-- Generated by `go run ./cmd/stbench -catalog`; do not edit by hand.\n")
	b.WriteString("     TestScenarioCatalogInSync (internal/harness) fails when this file\n")
	b.WriteString("     drifts from the registry. -->\n\n")
	b.WriteString("Every registered harness scenario, the spec dimensions the driver\n")
	b.WriteString("resolves for it, and how it reaches CI. \"smoke + benchdiff gate\" rows\n")
	b.WriteString("run in every PR's bench job (scripts/bench_smoke.sh) and are compared\n")
	b.WriteString("against `ci/bench_baseline.json` under the tolerances in\n")
	b.WriteString("internal/harness/diff.go; `cmd/stbench -scenario <name>` runs any row\n")
	b.WriteString("on demand.\n")
	for _, f := range families {
		fmt.Fprintf(&b, "\n## %s\n\n%s\n\n", f, familyNotes[f])
		b.WriteString("| Scenario | Workload | Link | Clients | Frames | Codec | Loss model | CI |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|\n")
		scs := byFamily[f]
		sort.Slice(scs, func(i, j int) bool { return scs[i].Name < scs[j].Name })
		for _, s := range scs {
			spec := s.Spec.WithDefaults()
			loss := spec.LossLabel()
			if loss == "" {
				loss = "–"
			} else if spec.FECGroup > 0 {
				loss += fmt.Sprintf(" +fec%d", spec.FECGroup)
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %d | %d | %s | %s | %s |\n",
				s.Name, spec.Workload, spec.BandwidthLabel(), spec.Clients,
				spec.Frames, spec.CodecLabel(), loss, ciGate(s.Name, smokeGlobs))
		}
		b.WriteString("\nDescriptions:\n\n")
		for _, s := range scs {
			fmt.Fprintf(&b, "- `%s` — %s\n", s.Name, s.Desc)
		}
	}
	return b.String(), nil
}
