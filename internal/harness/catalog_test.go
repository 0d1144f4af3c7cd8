package harness

import (
	"os"
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
// (`go run ./cmd/stbench -catalog`, or UPDATE_GOLDEN=1 on this test) fails
// here. So does a scenario that neither the smoke matrix nor the nightly
// soak runs: the catalog has no on-demand rows.
func TestScenarioCatalogInSync(t *testing.T) {
	globs, err := BenchSmokeGlobs(benchSmokePath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CatalogMarkdown(globs)
	if err != nil {
		t.Fatal(err)
	}
	// The rule bites: take any one glob out of the matrix and the
	// scenarios it alone selected have no gate left.
	for i, g := range globs {
		rest := append(append([]string(nil), globs[:i]...), globs[i+1:]...)
		if _, err := CatalogMarkdown(rest); err == nil || !strings.Contains(err.Error(), "neither") {
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
		t.Fatalf("catalog missing (generate with `go run ./cmd/stbench -catalog`): %v", err)
	}
	if string(got) != want {
		t.Errorf("docs/SCENARIOS.md is stale: regenerate with `go run ./cmd/stbench -catalog` (or UPDATE_GOLDEN=1 go test -run TestScenarioCatalogInSync ./internal/harness)")
	}
}

// TestBenchSmokeGlobsMatchRegistry guards the CI matrix itself: every glob
// bench_smoke.sh runs must select at least one registered scenario (a
// renamed family would otherwise silently drop out of the gate), and the
// loss family must be part of the per-PR matrix.
func TestBenchSmokeGlobsMatchRegistry(t *testing.T) {
	globs, err := BenchSmokeGlobs(benchSmokePath)
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
