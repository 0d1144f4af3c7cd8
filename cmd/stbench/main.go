// Command stbench regenerates every table and figure of the ShadowTutor
// paper's evaluation section (§6) from this reproduction, and drives the
// declarative scenario harness (internal/harness). By default it runs the
// full 5000-frame protocol per stream, which takes a while on pure Go;
// -frames trades fidelity for speed (shapes are stable from a few hundred
// frames).
//
// Usage:
//
//	stbench                  # Tables 2-7, Figure 4 and the §4.4/§5.3 bounds, paper-scale
//	stbench -frames 600      # quick pass
//	stbench -ablations       # the ablation suite instead of the paper tables
//
// Scenario harness (docs/SCENARIOS.md lists the registered scenarios):
//
//	stbench -scenario bandwidth-sweep/8mbps-c1-raw       # one scenario
//	stbench -scenario 'bandwidth-sweep/*' -json out.json # a family + metrics JSON
//	stbench -scenario 'bandwidth-sweep/*,chaos/*'        # several patterns
//	stbench -scenario 'fleet/*' -admin 127.0.0.1:9090    # live /metrics, /statusz, /tracez, pprof
//
// The scenario path honours -frames, -eval-every and -seed as overrides;
// -json writes the versioned machine-readable BenchFile that cmd/benchdiff
// gates CI with.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stbench: ")
	var (
		frames    = flag.Int("frames", 5000, "frames per stream (paper: 5000)")
		evalEvery = flag.Int("eval-every", 1, "accuracy sampling period (1 = paper protocol)")
		seed      = flag.Int64("seed", 11, "master seed for synthetic streams")
		ablations = flag.Bool("ablations", false, "run the ablation suite (stride, async, freeze point, loss weighting, diff codecs) instead of the paper tables")
		scenario  = flag.String("scenario", "", "run registered scenarios (docs/SCENARIOS.md) matching this comma-separated list of names/globs (e.g. 'bandwidth-sweep/*')")
		jsonOut   = flag.String("json", "", "with -scenario: write machine-readable metrics JSON to this path")
		adminAddr = flag.String("admin", "", "with -scenario: serve the admin HTTP endpoint (/metrics, /statusz, /tracez, /debug/pprof) on this address during the run (empty = disabled)")
	)
	flag.Parse()

	if *scenario != "" {
		// Overrides apply only when the flag was given: scenarios carry
		// their own (smoke-sized) frame defaults.
		var ov harness.Overrides
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "frames":
				ov.Frames = *frames
			case "eval-every":
				ov.EvalEvery = *evalEvery
			case "seed":
				// Zero is the harness's unset sentinel at every layer
				// (Overrides and Spec defaults), so it cannot be pinned —
				// fail loudly rather than silently running seed 11.
				if *seed == 0 {
					log.Fatal("-seed 0 is reserved (scenario specs treat 0 as \"use default\"); pick a nonzero seed")
				}
				ov.Seed = *seed
			}
		})
		// -admin instruments the runs on one live registry and serves it
		// over HTTP.
		if *adminAddr != "" {
			reg := telemetry.New()
			ov.Telemetry = reg
			admin, err := telemetry.NewAdmin(*adminAddr, reg)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("admin endpoint on http://%s (/metrics /statusz /tracez /debug/pprof)", admin.Addr())
			defer admin.Close(2 * time.Second)
		}
		runScenarios(*scenario, *jsonOut, ov)
		return
	}

	opts := experiments.Options{Frames: *frames, EvalEvery: *evalEvery, Seed: *seed}
	start := time.Now()

	suite := experiments.NewSuite(opts)

	if *ablations {
		emitRows(suite.AblationStride())
		emitRows(suite.AblationAsync())
		emitRows(suite.AblationFreezePoint())
		emitRows(suite.AblationLossWeighting())
		emitRows(experiments.AblationCompression())
		log.Printf("ablations done in %v", time.Since(start).Round(time.Second))
		return
	}

	out, err := suite.WriteAllTables()
	if err != nil {
		log.Fatalf("suite failed: %v", err)
	}
	fmt.Println(out)
	log.Printf("done in %v", time.Since(start).Round(time.Second))
}

// emitRows prints an ablation's table, rendered from its typed rows.
func emitRows[R interface{ Table() *stats.Table }](rows R, err error) {
	if err != nil {
		log.Fatalf("experiment failed: %v", err)
	}
	fmt.Println(rows.Table())
}

// resolve expands a comma-separated pattern list into a deduplicated,
// registration-ordered scenario selection.
func resolve(patterns string) ([]harness.Scenario, error) {
	seen := map[string]bool{}
	var out []harness.Scenario
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		matched, err := harness.Match(pat)
		if err != nil {
			return nil, err
		}
		if len(matched) == 0 {
			return nil, fmt.Errorf("no scenario matches %q (docs/SCENARIOS.md lists them)", pat)
		}
		for _, s := range matched {
			if !seen[s.Name] {
				seen[s.Name] = true
				out = append(out, s)
			}
		}
	}
	return out, nil
}

func runScenarios(patterns, jsonPath string, ov harness.Overrides) {
	scs, err := resolve(patterns)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	var results []harness.Metrics
	for _, s := range scs {
		log.Printf("running %s …", s.Name)
		ms, err := harness.RunScenario(s, ov)
		if err != nil {
			log.Fatalf("%v", err)
		}
		results = append(results, ms...)
	}

	t := stats.NewTable(fmt.Sprintf("Scenario metrics (%d rows)", len(results)),
		"Scenario", "FPS", "p50 ms", "p99 ms", "KF %", "mIoU", "Up HD-MB", "Down HD-MB", "Resil.", "Extra")
	for _, m := range results {
		t.AddRow(m.Scenario,
			fmtF(m.AggregateFPS), fmtF(m.LatencyP50MS), fmtF(m.LatencyP99MS),
			fmtF(m.KeyFrameRate*100), fmtF(m.MeanIoU*100),
			fmtF(m.BytesUpHDMB), fmtF(m.BytesDownHDMB),
			fmtResilience(m), fmtExtra(m.Extra))
	}
	fmt.Println(t)

	if jsonPath != "" {
		if err := harness.WriteFile(jsonPath, results); err != nil {
			log.Fatalf("writing %s: %v", jsonPath, err)
		}
		log.Printf("wrote %d scenario results to %s", len(results), jsonPath)
	}
	log.Printf("scenarios done in %v", time.Since(start).Round(time.Second))
}

func fmtF(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// fmtResilience renders the chaos recovery counters compactly:
// reconnects/journal-replays/full-resends plus mean recovery latency.
func fmtResilience(m harness.Metrics) string {
	if m.Reconnects == 0 && m.FullResends == 0 {
		return "-"
	}
	return fmt.Sprintf("r%d/j%d/f%d %.0fms", m.Reconnects, m.ResumeReplays, m.FullResends, m.RecoveryMeanMS)
}

// fmtExtra renders family-specific metrics (the only data the folded
// compression scenario produces) as sorted key=value pairs.
func fmtExtra(extra map[string]float64) string {
	if len(extra) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4g", k, extra[k])
	}
	return strings.Join(parts, " ")
}
