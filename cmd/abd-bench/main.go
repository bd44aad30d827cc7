// Command abd-bench regenerates the evaluation's tables and figures
// (DESIGN.md §3) and prints them as aligned text, suitable for pasting into
// EXPERIMENTS.md.
//
// Usage:
//
//	abd-bench [-exp all|<id>[,<id>...]] [-quick] [-seed N]
//
// The experiment menu (ids accepted by -exp, shown by -help) is generated
// from the experiments registry, so a newly registered experiment appears
// here without touching this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp   = flag.String("exp", "all", "experiment id ("+experiments.Menu()+") or 'all'")
		quick = flag.Bool("quick", false, "smaller sweeps and op counts")
		seed  = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed}

	var runners []experiments.Runner
	if strings.EqualFold(*exp, "all") {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			r, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "abd-bench: unknown experiment %q (want %s, or all)\n", id, experiments.Menu())
				return 2
			}
			runners = append(runners, r)
		}
	}

	fmt.Printf("# ABD evaluation run: %d experiment(s), quick=%v, seed=%d\n\n", len(runners), *quick, *seed)
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-bench: %s: %v\n", r.ID, err)
			return 1
		}
		tbl.Format(os.Stdout)
		fmt.Printf("   (%s took %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
