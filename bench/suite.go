package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

type suiteConfig struct {
	seed        int64
	seconds     float64
	quick       bool
	repeat      int
	checkRepeat bool
	tracedOnly  bool
	jsonOut     string
}

// set is the results of running every workload repeat times.
type set struct {
	E2E    []*runResult // end-to-end runs, untraced
	Layers []*runResult // per-layer runs
}

// runSuite is the benchmark for people: every workload, end-to-end and then
// per-layer, every metric printed by name and unit, and a summary.
func runSuite(ctx context.Context, ws *workspace, sc suiteConfig) int {
	if sc.repeat < 1 {
		sc.repeat = 1
	}
	sets := 1
	if sc.checkRepeat {
		sets = 2
		if sc.repeat < 3 {
			sc.repeat = 3 // a median of fewer says little
		}
	}
	ok := true
	invalid := 0 // runs whose generator ran late: flagged, not failed — on this box that is the weather
	// The sets take turns, run by run (A, B, A, B, …), so that a drift of the
	// machine's speed falls on both and not on whichever set ran second.
	all := make([]set, sets)
	for rep := 0; rep < sc.repeat; rep++ {
		// Every run of a set gets its own seed; two sets share theirs, so
		// -check-repeat compares like with like.
		seed := sc.seed + int64(rep)
		for _, w := range workloads {
			for s := range all {
				for _, layers := range []bool{false, true} {
					if (layers && sc.checkRepeat) || (!layers && sc.tracedOnly) {
						continue // -check-repeat compares end-to-end runs only
					}
					res, err := runOnce(ctx, ws, configFor(w, seed, sc.seconds, layers, sc.quick))
					if err != nil {
						fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
						return 1
					}
					printRun(res)
					ok = ok && res.Correct
					if !res.Valid {
						invalid++
					}
					if layers {
						all[s].Layers = append(all[s].Layers, res)
					} else {
						all[s].E2E = append(all[s].E2E, res)
					}
				}
			}
		}
	}

	for i, st := range all {
		if len(st.E2E) > 0 && (sc.repeat > 1 || sets > 1) {
			fmt.Printf("\n== set %d: median and IQR/median over %d runs ==\n", i+1, sc.repeat)
			summarise(st)
		}
	}
	if sc.checkRepeat {
		ok = compareSets(ws.root, all[0], all[1]) && ok
	}
	if sc.jsonOut != "" {
		b, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(sc.jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if invalid > 0 {
		fmt.Printf("\nbench: %d run(s) marked INVALID: the generator ran more than 1 ms late at p99; treat their latencies with suspicion\n", invalid)
	}
	if !ok {
		fmt.Println("\nbench: FAILED (see the lines marked ! above)")
		return 1
	}
	return 0
}

// column collects one end-to-end metric of one workload over a set's runs.
func column(st set, workload, metric string) []float64 {
	var v []float64
	for _, r := range st.E2E {
		if r.Workload == workload {
			v = append(v, r.E2E[metric])
		}
	}
	return v
}

func summarise(st set) {
	for _, w := range workloads {
		fmt.Printf("  %s\n", w.Name)
		for _, m := range endToEndOrder {
			v := column(st, w.Name, m)
			fmt.Printf("    %-16s median %12.4f %-4s IQR/median %5.1f%%\n", m, median(v), endToEndUnits[m], 100*relIQR(v))
		}
	}
	fmt.Println("  regression bounds these runs derive (BENCHMARK.json holds the lesser of this and 25%, the most its schema takes)")
	for _, m := range endToEndOrder {
		fmt.Printf("    %-16s %5.1f%%\n", m, 100*derivedBound(st, m))
	}
}

// derivedBound is ISSUE 11's rule for a metric's regression bound: three
// times the widest IQR/median any workload showed, and at least 5%.
func derivedBound(st set, metric string) float64 {
	widest := 0.0
	for _, w := range workloads {
		widest = math.Max(widest, relIQR(column(st, w.Name, metric)))
	}
	return math.Max(0.05, 3*widest)
}

// compareSets applies BENCHMARK.json's bounds to the medians of two sets of
// the same code: a metric that moves by more than its bound, either way,
// means the benchmark cannot tell a regression of that size from noise.
func compareSets(root string, a, b set) bool {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -check-repeat: %v\n", err)
		return false
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	names := make([]string, 0, len(bounds))
	for n := range bounds {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	fmt.Println("\n== -check-repeat: set 1 median vs set 2 median ==")
	for _, w := range workloads {
		for _, m := range names {
			m1, m2 := median(column(a, w.Name, m)), median(column(b, w.Name, m))
			move := math.Abs(m2-m1) / m1
			verdict := "ok"
			if move > bounds[m] {
				verdict, ok = "OVER BOUND", false
			}
			fmt.Printf("  %-12s %-16s %12.4f → %12.4f  moved %5.1f%%  bound %4.1f%%  %s\n",
				w.Name, m, m1, m2, 100*move, 100*bounds[m], verdict)
		}
	}
	return ok
}
