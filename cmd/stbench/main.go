// Command stbench regenerates every table and figure of the ShadowTutor
// paper's evaluation section (§6) from this reproduction, and drives the
// declarative scenario harness (internal/harness). By default it runs the
// full 5000-frame protocol per stream, which takes a while on pure Go;
// -frames trades fidelity for speed (shapes are stable from a few hundred
// frames).
//
// Usage:
//
//	stbench                  # all tables and figures, paper-scale
//	stbench -frames 600      # quick pass
//	stbench -table 5         # a single table
//	stbench -figure 4        # the bandwidth sweep
//	stbench -bounds          # §4.4/§5.3 analytic bound report
//
// Scenario harness:
//
//	stbench -list                                        # registered scenarios
//	stbench -scenario bandwidth-sweep/8mbps-c1-raw       # one scenario
//	stbench -scenario 'bandwidth-sweep/*' -json out.json # a family + metrics JSON
//	stbench -scenario 'bandwidth-sweep/*,chaos/*'        # several patterns
//	stbench -scenario 'fleet/*'                          # sharded serving: 8–64 clients over 1–4 shards
//
// The scenario path honours -frames, -eval-every and -seed as overrides;
// -json writes the versioned machine-readable BenchFile that cmd/benchdiff
// gates CI with.
//
// Observability (scenario runs):
//
//	stbench -scenario 'fleet/*' -admin 127.0.0.1:9090   # live /metrics, /statusz, /tracez, pprof
//	stbench -scenario 'loss/*' -progress                # one-line live status on stderr
//	stbench -scenario 'fleet/*' -sample 250ms -json out.json  # sampled time series in the JSON
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
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
		frames     = flag.Int("frames", 5000, "frames per stream (paper: 5000)")
		evalEvery  = flag.Int("eval-every", 1, "accuracy sampling period (1 = paper protocol)")
		seed       = flag.Int64("seed", 11, "master seed for synthetic streams")
		table      = flag.Int("table", 0, "regenerate a single table (2-7); 0 = all")
		figure     = flag.Int("figure", 0, "regenerate a single figure (4); 0 = all")
		boundsOnly = flag.Bool("bounds", false, "print only the analytic bound report")
		ablations  = flag.Bool("ablations", false, "run the ablation suite (stride, async, freeze point, loss weighting, diff codecs) instead of the paper tables")
		list       = flag.Bool("list", false, "list registered harness scenarios and exit")
		catalog    = flag.Bool("catalog", false, "regenerate docs/SCENARIOS.md from the scenario registry and exit")
		scenario   = flag.String("scenario", "", "run registered scenarios matching this comma-separated list of names/globs (e.g. 'bandwidth-sweep/*')")
		jsonOut    = flag.String("json", "", "with -scenario: write machine-readable metrics JSON to this path")
		adminAddr  = flag.String("admin", "", "with -scenario: serve the admin HTTP endpoint (/metrics, /statusz, /tracez, /debug/pprof) on this address during the run (empty = disabled)")
		progress   = flag.Bool("progress", false, "with -scenario: print a one-line live status (sessions, fps, loss, sheds) to stderr during the run")
		sample     = flag.Duration("sample", 0, "with -scenario: poll live telemetry at this period and emit the time series in the metrics JSON (0 = off)")
	)
	flag.Parse()

	if *list {
		listScenarios()
		return
	}
	if *catalog {
		writeCatalog()
		return
	}
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
		// Any observability flag instruments the runs on one shared live
		// registry; -admin serves it over HTTP, -progress renders it inline,
		// -sample folds its time series into the metrics output.
		ov.SampleEvery = *sample
		if *adminAddr != "" || *progress || *sample > 0 {
			reg := telemetry.New()
			ov.Telemetry = reg
			if *adminAddr != "" {
				admin, err := telemetry.NewAdmin(*adminAddr, reg)
				if err != nil {
					log.Fatal(err)
				}
				log.Printf("admin endpoint on http://%s (/metrics /statusz /tracez /debug/pprof)", admin.Addr())
				defer admin.Close(2 * time.Second)
			}
			if *progress {
				stop := make(chan struct{})
				done := make(chan struct{})
				go progressLoop(reg, stop, done)
				defer func() { close(stop); <-done }()
			}
		}
		runScenarios(*scenario, *jsonOut, ov)
		return
	}
	if *boundsOnly {
		fmt.Println(experiments.BoundsReport())
		return
	}

	opts := experiments.Options{Frames: *frames, EvalEvery: *evalEvery, Seed: *seed}
	start := time.Now()

	emit := func(t *stats.Table, err error) {
		if err != nil {
			log.Fatalf("experiment failed: %v", err)
		}
		fmt.Println(t)
	}

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

	switch {
	case *table == 2:
		emit(suite.Table2())
	case *table == 3:
		emit(suite.Table3())
	case *table == 4:
		emit(experiments.Table4())
	case *table == 5:
		emit(suite.Table5())
	case *table == 6:
		emit(suite.Table6())
	case *table == 7:
		emit(suite.Table7())
	case *table != 0:
		log.Fatalf("unknown table %d (have 2-7)", *table)
	case *figure == 4:
		_, t, err := suite.Figure4()
		emit(t, err)
	case *figure != 0:
		log.Fatalf("unknown figure %d (have 4)", *figure)
	default:
		out, err := suite.WriteAllTables()
		if err != nil {
			log.Fatalf("suite failed: %v", err)
		}
		fmt.Println(out)
	}
	log.Printf("done in %v", time.Since(start).Round(time.Second))
}

// emitRows prints an ablation's table, rendered from its typed rows.
func emitRows[R interface{ Table() *stats.Table }](rows R, err error) {
	if err != nil {
		log.Fatalf("experiment failed: %v", err)
	}
	fmt.Println(rows.Table())
}

func listScenarios() {
	t := stats.NewTable("Registered scenarios (run with -scenario <name|glob>)",
		"Name", "Clients", "Frames", "Bandwidth", "Codec", "Description")
	for _, s := range harness.All() {
		spec := s.Spec
		clients, frames := "-", "-"
		if s.Run == nil {
			// Driver scenarios run with every default resolved; custom
			// runners only display the knobs they explicitly set.
			spec = spec.WithDefaults()
		}
		if spec.Clients > 0 {
			clients = fmt.Sprint(spec.Clients)
		}
		if spec.Frames > 0 {
			frames = fmt.Sprint(spec.Frames)
		}
		t.AddRow(s.Name, clients, frames, spec.BandwidthLabel(), spec.CodecLabel(), s.Desc)
	}
	fmt.Println(t)
}

// writeCatalog regenerates docs/SCENARIOS.md from the live registry and the
// live CI smoke matrix; TestScenarioCatalogInSync holds the file to this
// output. Must run from the repo root (where docs/ and scripts/ live).
func writeCatalog() {
	globs, err := harness.BenchSmokeGlobs("scripts/bench_smoke.sh")
	if err != nil {
		log.Fatalf("reading CI smoke matrix (run from the repo root): %v", err)
	}
	md, err := harness.CatalogMarkdown(globs)
	if err != nil {
		log.Fatal(err)
	}
	const path = "docs/SCENARIOS.md"
	if err := os.MkdirAll("docs", 0o755); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(md), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d scenarios)", path, len(harness.All()))
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
			return nil, fmt.Errorf("no scenario matches %q (try -list)", pat)
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

// progressLoop renders a one-line live status on stderr twice a second
// from the run's telemetry registry: active sessions across the tier,
// aggregate FPS (delta of the client frame counters), pre-FEC link loss,
// and admission sheds. The line overdraws itself with \r; the final
// newline lands when the run ends.
func progressLoop(reg *telemetry.Registry, stop, done chan struct{}) {
	defer close(done)
	const period = 500 * time.Millisecond
	sum := func(snap []telemetry.FamilySnapshot, family string) float64 {
		total := 0.0
		for _, f := range snap {
			if f.Name != family {
				continue
			}
			for _, s := range f.Series {
				if s.Hist != nil {
					total += float64(s.Hist.Count)
				} else {
					total += s.Value
				}
			}
		}
		return total
	}
	lastFrames, wrote := 0.0, false
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if wrote {
				fmt.Fprintln(os.Stderr)
			}
			return
		case <-tick.C:
			snap := reg.Snapshot()
			frames := sum(snap, "shadowtutor_client_frames_total")
			fps := (frames - lastFrames) / period.Seconds()
			lastFrames = frames
			lossPct := 0.0
			if sent := sum(snap, "shadowtutor_link_packets_sent"); sent > 0 {
				lossPct = 100 * sum(snap, "shadowtutor_link_packets_lost") / sent
			}
			fmt.Fprintf(os.Stderr, "\rlive: %d sessions | %.1f fps | %.2f%% loss | %d sheds   ",
				int(sum(snap, "shadowtutor_sessions_active")), fps,
				lossPct, int(sum(snap, "shadowtutor_fabric_sheds_total")))
			wrote = true
		}
	}
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
