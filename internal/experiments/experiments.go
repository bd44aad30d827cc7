// Package experiments regenerates every table and figure of the evaluation
// (DESIGN.md §3). The PODC'90/JACM'95 paper is theoretical, so each
// experiment turns one of its *stated analytic properties* — message
// complexity, round complexity, the f < n/2 resilience bound, atomicity,
// bounded labels, the quorum generalization, and the shared-memory
// portability theorem — into a measurement on the simulated network, where
// message counts are exact and failures are injectable.
//
// abd-sim -exp prints the tables; bench_test.go exposes each experiment's
// inner loop as a testing.B benchmark; EXPERIMENTS.md records a full run.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	abd "repro"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks op counts and sweeps for CI-speed runs.
	Quick bool
	// Seed feeds every simulation in the run.
	Seed int64
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// cluster starts n replicas on a fresh simulated network seeded with
// o.Seed; later options (a WithSeed among them) win. Close it when done.
func (o Options) cluster(n int, opts ...abd.Option) *abd.Cluster {
	c, err := abd.NewCluster(n, append([]abd.Option{abd.WithSeed(o.seed())}, opts...)...)
	if err != nil {
		// n is a constant of the experiment and no experiment sets client
		// defaults, so NewCluster has nothing to refuse.
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return c
}

// scale returns full unless Quick, then quick.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Table is one regenerated table or figure.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (T1..T5, F1..F6).
	ID string
	// Title describes the experiment.
	Title string
	// Claim is the paper property the experiment checks.
	Claim string
	// Headers and Rows hold the data; figures are rendered as their
	// underlying data series, one row per point.
	Headers []string
	Rows    [][]string
	// Notes carry caveats and derived observations.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   claim: %s\n", t.Claim)

	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner is one experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(Options) (*Table, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"T1", "message complexity per operation", T1MessageComplexity},
		{"T2", "round (latency) complexity", T2Rounds},
		{"F1", "latency vs cluster size", F1LatencyVsN},
		{"F2", "crash tolerance vs baselines", F2CrashTolerance},
		{"F3", "throughput vs read fraction", F3Throughput},
		{"T3", "linearizability of recorded histories", T3Linearizability},
		{"F4", "liveness boundary at lost majority", F4PartitionBoundary},
		{"F5", "quorum system availability and load", F5QuorumAvailability},
		{"T4", "bounded vs unbounded timestamps", T4BoundedLabels},
		{"T5", "multi-writer extension", T5MultiWriter},
		{"F6", "shared-memory algorithms over the emulation", F6Applications},
		{"T6", "Byzantine replicas vs masking quorums (extension)", T6Byzantine},
		{"F7", "ablations: phase fanout and retransmission", F7Ablations},
	}
}

// Find returns the runner with the given ID (case-insensitive).
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// Menu returns the id menu for command-line help, generated from the
// registry so a new experiment shows up in abd-sim's usage and -exp
// validation the moment it is registered.
func Menu() string {
	parts := make([]string, 0, len(All()))
	for _, r := range All() {
		parts = append(parts, r.ID)
	}
	return strings.Join(parts, ", ")
}

// ---- measurement helpers ----

// latencies times count invocations of fn and returns the samples.
func latencies(count int, fn func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, count)
	for i := 0; i < count; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

func mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	return total / time.Duration(len(samples))
}

func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// us formats a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3)
}

// ratio formats a float with one decimal.
func ratio(f float64) string { return fmt.Sprintf("%.1f", f) }
