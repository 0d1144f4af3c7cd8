package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// runAA runs every workload n times as separate processes of this binary
// (so set-up and peak memory are per run, as the driver sees them), run i
// with seed+i as the driver's acceptance check does, and prints, per
// workload and end-to-end metric, the median, the quartiles, their distance
// as a share of the median — the driver's spread — and the largest relative
// difference between any two runs.
//
// It fails when a spread exceeds the metric's bound. The gate is the
// quartile distance and not the largest pairwise difference because that is
// the rule the driver accepts or refuses the benchmark by, and because the
// largest difference grows with n: one run in a slow phase of the box sets
// it, however steady the other n-1 are. It is printed so such a run shows.
func runAA(n int, seed int64, seconds int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	over := 0
	for _, w := range workloads {
		samples := map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0"}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s run %d: last line is not a result: %w", w.name, i, err)
			}
			for name, v := range res.Metrics {
				samples[name] = append(samples[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", w.name, i+1, n)
		}
		fmt.Printf("%s, %d runs\n", w.name, n)
		fmt.Printf("  %-22s %12s %12s %12s %9s %9s %7s\n", "metric", "median", "q1", "q3", "spread", "max pair", "bound")
		for _, d := range endToEnd {
			v := samples[d.name]
			med := stats.Median(v)
			q1, q3 := quartiles(v)
			s := sorted(v)
			spread, pair := (q3-q1)/med, (s[len(s)-1]-s[0])/med
			flag := ""
			if spread > d.bound {
				flag = "  OVER BOUND"
				over++
			}
			fmt.Printf("  %-22s %12.4f %12.4f %12.4f %8.2f%% %8.2f%% %6.0f%%%s\n",
				d.name, med, q1, q3, 100*spread, 100*pair, 100*d.bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", over)
	}
	return nil
}
