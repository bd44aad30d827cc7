// Command bench is the repository's one benchmark: it builds cmd/abd-node,
// spawns three real replica processes with a WAL on disk, and drives them
// over TCP from this process at a fixed, seeded, open-loop arrival rate,
// timing every operation from the instant it was due. See README.md.
//
// Run one workload the way the driver does:
//
//	go run -C bench . --workload read-heavy --seed 1 --seconds 26 --trace 0
//
// or, without --workload, the whole set with a report for people:
//
//	go run -C bench .                 # four workloads, end-to-end then per-layer
//	go run -C bench . -repeat 5       # the set five times: median and IQR per metric
//	go run -C bench . -check-repeat   # two sets; non-zero exit if they disagree beyond the bounds
//	go run -C bench . -quick          # smoke test, numbers not comparable
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name        = flag.String("workload", "", "run this one workload and end with the driver's JSON line (empty = the whole set)")
		seed        = flag.Int64("seed", 1, "seed of the arrival schedule")
		seconds     = flag.Float64("seconds", defaultSeconds, "measuring time of one run: warm-up, steady window and ladder")
		trace       = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ones")
		quick       = flag.Bool("quick", false, "smoke test: 3 s steady window, 3 rungs, one set-up; numbers are NOT comparable")
		repeat      = flag.Int("repeat", 1, "run the set this many times and report median and IQR per metric")
		checkRepeat = flag.Bool("check-repeat", false, "run two sets (of -repeat runs, at least 3) and fail if an end-to-end median moves by more than its bound")
		tracedOnly  = flag.Bool("traced", false, "whole set: only the per-layer runs")
		jsonOut     = flag.String("json", "", "whole set: also write every run's result to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	// SIGINT and SIGTERM cancel the run; every set-up is torn down on the
	// way out, so no node outlives this process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ws, err := newWorkspace(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer ws.remove()

	fmt.Printf("bench: %s, %d processors, GOMAXPROCS %d; %d replicas + 1 loadgen on loopback, injected delay 0\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), replicas)
	fmt.Println("bench: latencies are processor + syscall + page-cache fsync time of this sandbox, not of a network or a device")
	if *quick {
		fmt.Println("bench: -quick: smoke test only, NOT comparable with any other run")
	}

	if *name != "" {
		return runDriver(ctx, ws, *name, *seed, *seconds, *trace == 1, *quick)
	}
	return runSuite(ctx, ws, suiteConfig{
		seed: *seed, seconds: *seconds, quick: *quick, repeat: *repeat,
		checkRepeat: *checkRepeat, tracedOnly: *tracedOnly, jsonOut: *jsonOut,
	})
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 26

// spareSetups is how many set-ups an end-to-end run times besides the one
// it measures on: half before it and half after the run, so that setup_s,
// the median of all nine, samples the machine at two moments half a minute
// apart and not inside one of its slow spells. A per-layer run does not
// report setup_s and sets up once.
const spareSetups = 8

func configFor(w workload, seed int64, seconds float64, layers, quick bool) runConfig {
	cfg := runConfig{W: w, Seed: seed, Shape: shapeFor(seconds, quick, layers), Layers: layers, SpareSetups: spareSetups}
	if layers || quick {
		cfg.SpareSetups = 0
	}
	return cfg
}

// runDriver is the contract's single run: human-readable lines first, then
// one JSON object as the last line of standard output.
func runDriver(ctx context.Context, ws *workspace, name string, seed int64, seconds float64, layers, quick bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	res, err := runOnce(ctx, ws, configFor(w, seed, seconds, layers, quick))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	printRun(res)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values, units := res.E2E, endToEndUnits
	if layers {
		values, units = res.Layers, perLayerUnits
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for name, unit := range units {
		out.Metrics[name] = metric{values[name], unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printRun prints every metric of a run by name, with its unit.
func printRun(r *runResult) {
	fmt.Printf("\n== %s (seed %d) ==\n", r.Workload, r.Seed)
	fmt.Printf("  ops_attempted %d   ops_failed %d   (steady window, and the ladder when there is one)\n", r.Attempted, r.Failed)
	for _, name := range endToEndOrder {
		v, ok := r.E2E[name]
		if !ok {
			continue
		}
		extra := ""
		if kind, _, found := strings.Cut(name, "_p50"); found {
			extra = fmt.Sprintf("   (n = %d; p99 on a quiet second %.0f us; over the whole window p50 %.0f us, p99 %.0f us)",
				r.Samples[kind], r.Tail[kind+"_p99_us"], r.Tail[kind+"_p50_whole_us"], r.Tail[kind+"_p99_whole_us"])
		}
		format := "  %-16s %12.2f %s%s\n"
		if endToEndUnits[name] == "s" {
			format = "  %-16s %12.4f %s%s\n" // a set-up is tens of milliseconds
		}
		fmt.Printf(format, name, v, endToEndUnits[name], extra)
	}
	fmt.Printf("  lincheck: %d operations on %d audit registers decided in %.0f ms", r.Audit.Ops, auditRegs, r.Audit.TookMs)
	if r.Audit.ByZones > 0 {
		fmt.Printf(" (%d of them by the zone test, after lincheck's %v each ran out)", r.Audit.ByZones, auditBudget/auditRegs)
	}
	fmt.Println()
	fmt.Printf("  generator lag (dispatch − due) in the steady window: p50 %.0f µs, p99 %.0f µs on the median second, max %.0f µs\n", r.LagUs[0], r.LagUs[1], r.LagUs[2])
	if len(r.Rungs) > 0 {
		fmt.Print("  ladder:")
	}
	for _, g := range r.Rungs {
		mark := "ok"
		p99 := fmt.Sprintf("%.0fµs", g.P99us)
		if g.P99us >= micros(failedLatency) {
			p99 = "over the limit"
		}
		if !g.Pass {
			mark = fmt.Sprintf("FAIL (%d failed, %d still in flight at its end)", g.Failed, g.Backlog)
		}
		fmt.Printf(" k%d@%.0f/s p99=%s %s;", g.K, g.Rate, p99, mark)
	}
	if len(r.Rungs) > 0 {
		fmt.Println()
	}
	if len(r.Layers) > 0 {
		names := make([]string, 0, len(r.Layers))
		for name := range r.Layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-30s %14.3f %s\n", name, r.Layers[name], perLayerUnits[name])
		}
	}
	for _, p := range r.Problems {
		fmt.Printf("  ! %s\n", p)
	}
	if !r.Valid {
		fmt.Println("  ! INVALID: the load generator ran late")
	}
	if !r.Correct {
		fmt.Println("  ! INCORRECT: a correctness check failed")
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// the per-metric regression bounds -check-repeat applies.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}
