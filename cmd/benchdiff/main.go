// Command benchdiff gates performance: it compares two machine-readable
// bench files (cmd/stbench -scenario ... -json) metric by metric under
// per-metric direction-aware tolerances and exits nonzero when anything
// regressed — the tool CI uses to hold every PR to the committed baseline.
//
// Usage:
//
//	benchdiff baseline.json current.json
//	benchdiff -tol latency_p99_ms=3.0 -tol aggregate_fps=0.6 base.json cur.json
//
// Tolerances are relative fractions (0.5 = ±50%); defaults are generous so
// the gate trips on order-of-magnitude losses (a 10× slower step,
// halved throughput), not cross-machine noise. Exit codes: 0 no
// regressions, 1 regressions found, 2 usage or schema error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/harness"
)

type tolFlags []string

func (t *tolFlags) String() string     { return fmt.Sprint([]string(*t)) }
func (t *tolFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	var tols tolFlags
	flag.Var(&tols, "tol", "per-metric tolerance override, metric=frac (repeatable; e.g. -tol latency_p99_ms=3.0)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchdiff [-tol metric=frac]... baseline.json current.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	overrides, err := harness.ParseTolerances(tols)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	base, err := harness.ReadFile(flag.Arg(0))
	if err != nil {
		log.Printf("baseline: %v", err)
		os.Exit(2)
	}
	current, err := harness.ReadFile(flag.Arg(1))
	if err != nil {
		log.Printf("current: %v", err)
		os.Exit(2)
	}

	regs, notes := harness.Compare(base, current, overrides)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Println("REGRESSION:", r)
		}
		fmt.Printf("benchdiff: %d regression(s) against %s\n", len(regs), flag.Arg(0))
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK — %d scenario(s) within tolerance of %s\n",
		len(base.Results), flag.Arg(0))
}
