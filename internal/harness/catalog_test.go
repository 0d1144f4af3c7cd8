package harness

import (
	"fmt"
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const (
	catalogPath    = "../../docs/SCENARIOS.md"
	benchSmokePath = "../../scripts/bench_smoke.sh"
)

// TestScenarioCatalogInSync is the registry-diff gate: docs/SCENARIOS.md
// must be byte-identical to what the generator produces from the live
// registry and the live CI smoke matrix. Registering a scenario, changing a
// spec dimension, or editing bench_smoke.sh without regenerating
// (UPDATE_GOLDEN=1 on this test) fails here. So does a scenario that neither the smoke matrix nor the nightly
// soak runs: the catalog has no on-demand rows.
func TestScenarioCatalogInSync(t *testing.T) {
	globs, err := benchSmokeGlobs(benchSmokePath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := catalogMarkdown(globs)
	if err != nil {
		t.Fatal(err)
	}
	// The rule bites: take any one glob out of the matrix and the
	// scenarios it alone selected have no gate left.
	for i, g := range globs {
		rest := append(append([]string(nil), globs[:i]...), globs[i+1:]...)
		if _, err := catalogMarkdown(rest); err == nil || !strings.Contains(err.Error(), "neither") {
			t.Errorf("catalog without smoke glob %q: err = %v, want an ungated scenario", g, err)
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(catalogPath, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("catalog regenerated; commit %s", catalogPath)
		return
	}
	got, err := os.ReadFile(catalogPath)
	if err != nil {
		t.Fatalf("catalog missing (generate with UPDATE_GOLDEN=1 go test -run TestScenarioCatalogInSync ./internal/harness): %v", err)
	}
	if string(got) != want {
		t.Errorf("docs/SCENARIOS.md is stale: regenerate with UPDATE_GOLDEN=1 go test -run TestScenarioCatalogInSync ./internal/harness")
	}
}

// TestBenchSmokeGlobsMatchRegistry guards the CI matrix itself: every glob
// bench_smoke.sh runs must select at least one registered scenario (a
// renamed family would otherwise silently drop out of the gate), and the
// loss family must be part of the per-PR matrix.
func TestBenchSmokeGlobsMatchRegistry(t *testing.T) {
	globs, err := benchSmokeGlobs(benchSmokePath)
	if err != nil {
		t.Fatal(err)
	}
	lossGated := false
	for _, g := range globs {
		scs, err := Match(g)
		if err != nil {
			t.Errorf("glob %q: %v", g, err)
			continue
		}
		if len(scs) == 0 {
			t.Errorf("bench_smoke.sh glob %q matches no registered scenario", g)
		}
		for _, s := range scs {
			if s.Family() == "loss" {
				lossGated = true
			}
		}
	}
	if !lossGated {
		t.Error("no loss/* scenario in the CI smoke matrix")
	}
}

// familyNotes documents, per scenario family, what the family measures and
// which metrics its CI gate pins. The catalog generator embeds these in
// docs/SCENARIOS.md and TestScenarioCatalogInSync fails when a family is
// registered without a note (or documented without being registered), so
// the catalog cannot silently rot.
var familyNotes = map[string]string{
	"bandwidth-sweep": "§6.4 link matrix on the drone stream: fixed profiles and the wifi-fade trace crossed with client counts and diff codecs. Gates throughput (`aggregate_fps`, `mean_client_fps`), latency percentiles, `mean_iou`, `key_frame_rate` and HD-scaled traffic.",
	"multiclient":     "One loopback session on the mixed stream: the single-session baseline the `fleet/*` rows scale from. Gates the standard throughput/accuracy/traffic set.",
	"compression":     "§8 diff-codec study offline: bytes per diff, compression ratio, reconstruction error as `extra.*` columns.",
	"chaos":           "Scripted mid-stream connection faults measuring the resume subsystem. Gates `reconnects` (exact), `resume_replays`/`full_resends` (drift), with recovery latency informational.",
	"fleet":           "Sharded serving fabric: rendezvous placement, admission shedding, cross-shard handoff (the parked session itself moves between shards; nothing is serialised), drains. Gates `shards` (exact), per-shard occupancy and `extra.envelope_shrink_x` (handshake-checkpoint plus resume-full bytes against raw); handoff/shed/migration counts are informational.",
	"loss":            "Packet-level network realism: seeded loss models (uniform, Gilbert-Elliott, trace-threshold), XOR-parity FEC and reordering. Gates `loss_rate_pct` (regime check) and `fec_group`.",
	"soak":            "Long multi-client runs for the nightly -race job; not part of the per-PR smoke matrix.",
}

// smokeRe extracts the default scenario matrix from scripts/bench_smoke.sh:
//
//	SCENARIOS="${SCENARIOS:-glob1,glob2,...}"
var smokeRe = regexp.MustCompile(`SCENARIOS="\$\{SCENARIOS:-([^}]*)\}"`)

// benchSmokeGlobs parses the CI smoke matrix (the comma-separated scenario
// globs bench_smoke.sh runs by default) out of the script itself, so the
// catalog and its sync test track the real gate, not a copy.
func benchSmokeGlobs(scriptPath string) ([]string, error) {
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

// ciGate names how one scenario reaches CI: the per-PR smoke matrix
// (benchdiff-gated against ci/bench_baseline.json) or the nightly soak. A
// scenario that reaches neither is an error — nothing checks what it
// carries, so it is gated or deleted, never kept on demand.
func ciGate(name string, smokeGlobs []string) (string, error) {
	for _, g := range smokeGlobs {
		if ok, err := path.Match(g, name); err == nil && (ok || g == name) {
			return "smoke + benchdiff gate", nil
		}
	}
	if strings.HasPrefix(name, "soak/") {
		return "nightly -race soak", nil
	}
	return "", fmt.Errorf("harness: scenario %q is in neither bench_smoke.sh's SCENARIOS nor soak/*; gate it or delete it", name)
}

// catalogMarkdown renders the complete scenario catalog — every registered
// scenario, its spec dimensions as the driver resolves them, and its CI
// gate — as the content of docs/SCENARIOS.md. smokeGlobs is the CI smoke
// matrix (benchSmokeGlobs). It fails when a scenario has no CI gate
// (ciGate). The output is deterministic: families and scenarios sort by
// name.
func catalogMarkdown(smokeGlobs []string) (string, error) {
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
	b.WriteString("<!-- Generated by `UPDATE_GOLDEN=1 go test -run TestScenarioCatalogInSync\n")
	b.WriteString("     ./internal/harness`; do not edit by hand. The test fails when this\n")
	b.WriteString("     file drifts from the registry. -->\n\n")
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
			spec := s.Spec
			spec.setDefaults()
			loss := spec.LossLabel()
			if loss == "" {
				loss = "–"
			} else if spec.FECGroup > 0 {
				loss += fmt.Sprintf(" +fec%d", spec.FECGroup)
			}
			gate, err := ciGate(s.Name, smokeGlobs)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %d | %d | %s | %s | %s |\n",
				s.Name, spec.Workload, spec.BandwidthLabel(), spec.Clients,
				spec.Frames, spec.CodecLabel(), loss, gate)
		}
		b.WriteString("\nDescriptions:\n\n")
		for _, s := range scs {
			fmt.Fprintf(&b, "- `%s` — %s\n", s.Name, s.Desc)
		}
	}
	return b.String(), nil
}
