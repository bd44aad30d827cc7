// Command abd-sim simulates and checks the emulation. It has four modes:
// the scenario (the default), -nemesis, -exp and -in.
//
// The scenario runs a concurrent read/write workload against an
// abd.Cluster on the simulated network, with an optional fault schedule,
// history recording, and linearizability checking:
//
//	abd-sim -n 5 -writers 2 -readers 3 -ops 20 \
//	        -faults "crash:0@50ms; partition:1,2|3,4@100ms; heal@200ms" \
//	        -check -out history.json
//
// The fault script syntax is documented in internal/failure. Operations
// that cannot reach a quorum during a fault window are recorded as pending
// (crashed) and the run continues — exactly how the model treats them.
//
// With -byz F the run becomes a Byzantine scenario: the last F replicas
// actively fabricate max-tags on every read query, every client validates
// reads with WithByzantine(F) (masking quorums, f+1 vouching; requires
// n >= 4F+1), the linearizability check is forced on, and the validation
// counters are printed. A fabricator that never stops is masked
// (unconfirmed) but never named a suspect: an honest replica holding a
// crashed writer's partial write could send the same replies.
//
//	abd-sim -byz 1 -n 5
//
// In nemesis mode -byz F instead runs the cluster in the nemesis's
// Byzantine mode: chaos-layer liars on the real TCP network driven by a
// generated schedule (or byz:<node>:<mode> script actions in -faults).
//
// With -nemesis the scenario instead runs on a real in-process TCP cluster
// (persistent replicas over tcpnet, chaos fault injection, crash+restart
// from the WAL) and the history is always checked:
//
//	abd-sim -nemesis -seed 101
//	abd-sim -nemesis -faults "faults:*:drop=0.3@100ms; crash:2@1s; recover:2@2s"
//
// -faults acts on the simulator as on the nemesis cluster: faults:
// installs a drop/dup/corrupt/delay/reorder mix, delivered by the same
// fault model. reset: is a no-op on the simulator, which has no
// connections to tear down, and byz: needs -nemesis, whose cluster owns the
// liars. In nemesis mode -faults may also reference client ids (9000,
// 9001, ...); when -faults is empty a schedule is generated
// deterministically from -seed.
//
// With -groups G (nemesis only) the cluster becomes G independent replica
// groups of n replicas each behind sharded stores (internal/shard): the
// generated schedule faults two groups at once and the register→group map
// is printed with the verdict.
//
//	abd-sim -nemesis -groups 3 -seed 404
//
// -exp regenerates the evaluation's tables (DESIGN.md §3) as aligned text,
// suitable for pasting into EXPERIMENTS.md; the ids it accepts come from
// the experiments registry:
//
//	abd-sim -exp all|<id>[,<id>...] [-quick] [-seed N]
//
// -in checks a recorded history (JSON lines, as -out writes them; '-' for
// stdin) instead of running anything:
//
//	abd-sim -in history.json [-timeout 30s] [-witness]
//
// Every checked mode prints one verdict line per register, in name order,
// then the overall verdict. Exit status: 0 linearizable (or nothing
// checked), 1 not linearizable or a run failure, 2 usage error or
// unreadable input, 3 undecided (search budget exhausted).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	abd "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/nemesis"
	"repro/internal/obs"
	"repro/internal/types"
)

// config is every flag of every mode.
type config struct {
	n, writers, readers, ops, regs, groups, byz int
	seed                                        int64
	minDelay, maxDelay, opTimeout, timeout      time.Duration
	faults, mode, out, traceOut, exp, in        string
	check, nemesis, quick, witness              bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var c config
	fs := flag.NewFlagSet("abd-sim", flag.ContinueOnError)
	fs.IntVar(&c.n, "n", 5, "replica count")
	fs.IntVar(&c.writers, "writers", 2, "concurrent writer clients")
	fs.IntVar(&c.readers, "readers", 3, "concurrent reader clients")
	fs.IntVar(&c.ops, "ops", 20, "operations per client")
	fs.IntVar(&c.regs, "regs", 0, "number of registers the workload spreads over (0 = auto: 1, or 2x groups in sharded nemesis mode)")
	fs.Int64Var(&c.seed, "seed", 1, "simulation seed")
	fs.DurationVar(&c.minDelay, "min-delay", 0, "min one-way message delay")
	fs.DurationVar(&c.maxDelay, "max-delay", 2*time.Millisecond, "max one-way message delay")
	fs.StringVar(&c.faults, "faults", "", "fault script (see internal/failure)")
	fs.StringVar(&c.mode, "mode", "atomic", "protocol variant: atomic | regular")
	fs.BoolVar(&c.check, "check", false, "run the linearizability checker on the history")
	fs.StringVar(&c.out, "out", "", "write the history as JSON lines to this file")
	fs.DurationVar(&c.opTimeout, "op-timeout", 2*time.Second, "per-operation deadline")
	fs.BoolVar(&c.nemesis, "nemesis", false, "run on a real TCP cluster with chaos injection and crash+restart (see internal/nemesis)")
	fs.IntVar(&c.groups, "groups", 1, "nemesis mode: replica groups (shards) of n replicas each behind sharded stores")
	fs.IntVar(&c.byz, "byz", 0, "Byzantine faults to tolerate: this many replicas lie (fabricated max-tags) and clients validate reads with WithByzantine (requires n >= 4*byz+1)")
	fs.StringVar(&c.traceOut, "trace-out", "", "nemesis mode: write every collected span as JSONL to this file (analyze with abd-cli trace)")
	fs.StringVar(&c.exp, "exp", "", "print the evaluation tables of these experiments ("+experiments.Menu()+", comma-separated) or 'all'")
	fs.BoolVar(&c.quick, "quick", false, "-exp: smaller sweeps and op counts")
	fs.StringVar(&c.in, "in", "", "check this recorded history (JSON lines; '-' for stdin) instead of running")
	fs.DurationVar(&c.timeout, "timeout", 30*time.Second, "-in: linearizability search budget")
	fs.BoolVar(&c.witness, "witness", false, "print a valid linearization order per register when one is found")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	modes := 0
	for _, on := range []bool{c.exp != "", c.in != "", c.nemesis} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "abd-sim: -exp, -in and -nemesis are separate modes; pick one")
		return 2
	}
	if c.exp != "" {
		return c.experiments()
	}
	if c.byz > 0 && c.n < 4*c.byz+1 {
		fmt.Fprintf(os.Stderr, "abd-sim: -byz %d needs n >= %d replicas (one-round f+1 validation), got -n %d\n",
			c.byz, 4*c.byz+1, c.n)
		return 2
	}

	var (
		ops     []history.Op
		results map[string]lincheck.Result // nil until checked
		groupOf map[string]int
		budget  = time.Minute
		res     *nemesis.Result
		code    int
	)
	switch {
	case c.in != "":
		if ops, code = readHistory(c.in); code != 0 {
			return code
		}
		c.check, budget = true, c.timeout
	case c.nemesis:
		if res, code = c.runNemesis(); res == nil {
			return code
		}
		ops, results, groupOf = res.History, res.Results, res.RegisterShard
	default:
		if ops, code = c.scenario(); code != 0 {
			return code
		}
	}

	if c.out != "" {
		err := save(c.out, fmt.Sprintf("history (%d ops)", len(ops)),
			func(w io.Writer) error { return history.WriteJSON(w, ops) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
	}
	if results == nil && c.check {
		results = lincheck.CheckRegisters(ops, lincheck.Config{Timeout: budget})
	}
	if results == nil {
		return 0
	}
	return verdict(ops, results, groupOf, c.witness)
}

// scenario runs the workload on an abd.Cluster over the simulated network
// and returns its history; a nonzero status means it never ran.
func (c *config) scenario() ([]history.Op, int) {
	if c.traceOut != "" {
		fmt.Fprintln(os.Stderr, "abd-sim: -trace-out requires -nemesis")
		return nil, 2
	}
	if c.groups > 1 {
		fmt.Fprintln(os.Stderr, "abd-sim: -groups requires -nemesis")
		return nil, 2
	}
	if c.regs <= 0 {
		c.regs = 1
	}
	var copts []core.ClientOption
	switch c.mode {
	case "atomic":
	case "regular":
		copts = append(copts, core.WithReadMode(core.ReadRegular))
	default:
		fmt.Fprintf(os.Stderr, "abd-sim: unknown mode %q\n", c.mode)
		return nil, 2
	}
	if c.byz > 0 {
		if c.mode == "regular" {
			fmt.Fprintln(os.Stderr, "abd-sim: -byz needs the write-back (it repairs honest laggards); -mode regular is incompatible")
			return nil, 2
		}
		copts = append(copts, core.WithByzantine(c.byz))
		// A Byzantine run without the checker proves nothing: force it on.
		c.check = true
	}
	sched, err := failure.Parse(c.faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
		return nil, 2
	}
	cl, err := abd.NewCluster(c.n, abd.WithSeed(c.seed), abd.WithDelays(c.minDelay, c.maxDelay))
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
		return nil, 2
	}
	defer cl.Close()
	// The last -byz replicas are the lying minority: their replies are
	// rewritten on the wire (core.Liar) to fabricate an enormous max-tag on
	// every read query — the strongest attack on a max-timestamp read
	// protocol.
	for i := c.n - c.byz; i < c.n; i++ {
		liar := core.NewLiar(types.NodeID(i), c.seed)
		liar.SetMode(core.ByzFabricate)
		cl.Net().SetInterceptor(types.NodeID(i), liar.Intercept)
		fmt.Printf("abd-sim: replica %d is Byzantine (fabricate)\n", i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	go func() {
		if err := sched.Run(ctx, cl.Net()); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "abd-sim: fault schedule: %v\n", err)
		}
	}()

	// Clients 0..writers-1 write, the rest read; each runs -ops operations
	// round-robin over the registers.
	rec := history.NewRecorder()
	var wg sync.WaitGroup
	var okOps, pendingOps atomic.Int64
	start := time.Now()
	for id := 0; id < c.writers+c.readers; id++ {
		cli := cl.Client(copts...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < c.ops; j++ {
				reg := fmt.Sprintf("x%d", j%c.regs)
				octx, ocancel := context.WithTimeout(ctx, c.opTimeout)
				var p *history.PendingOp
				var v types.Value
				var err error
				if id < c.writers {
					val := []byte(fmt.Sprintf("w%d-%d", id, j))
					p = rec.BeginWriteReg(id, reg, val)
					err = cli.Write(octx, reg, val)
				} else {
					p = rec.BeginReadReg(id, reg)
					v, err = cli.Read(octx, reg)
				}
				ocancel()
				switch {
				case err != nil:
					p.Crash()
					pendingOps.Add(1)
					continue
				case id < c.writers:
					p.EndWrite()
				default:
					p.EndRead(v)
				}
				okOps.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := cl.NetStats()
	fmt.Printf("abd-sim: %d ok, %d pending/timed-out ops in %v (%d messages sent, %d dropped)\n",
		okOps.Load(), pendingOps.Load(), elapsed.Round(time.Millisecond), st.Sent, st.Dropped)

	// Latency profile, merged over every client's obs histograms. Only
	// completed operations record, so the pending ops above are absent.
	lat := cl.Latency()
	row := func(kind string, s obs.HistSnapshot) {
		if s.Count == 0 {
			return
		}
		fmt.Printf("  %-22s %6d  p50=%-9v p95=%-9v p99=%-9v max=%v\n",
			kind, s.Count, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.MaxValue())
	}
	fmt.Printf("abd-sim: latency over %d client(s):\n", c.writers+c.readers)
	row("read", lat.Read)
	row("write", lat.Write)
	row("phase: query", lat.PhaseQuery)
	row("phase: update/wb", lat.PhaseUpdate)
	row("net one-way delay", st.Delay)

	if b := cl.Health().Byzantine; b != nil {
		fmt.Printf("abd-sim: byzantine validation (f=%d): suspects=%v unconfirmed=%d mask_retries=%d\n",
			b.ToleratedFaults, b.Suspects, b.Unconfirmed, b.MaskRetries)
	}
	return rec.Ops(), 0
}

// runNemesis executes one nemesis pass (internal/nemesis): a real TCP
// cluster of persistent replicas under a seeded chaos schedule, with the
// recorded history always checked for linearizability. A non-empty fault
// script overrides the generated schedule. A nil result comes with the
// exit status.
func (c *config) runNemesis() (*nemesis.Result, int) {
	cfg := nemesis.Config{
		N: c.n, Groups: c.groups, Writers: c.writers, Readers: c.readers,
		OpsPerClient: c.ops, Registers: c.regs, Seed: c.seed, Byzantine: c.byz,
	}
	if c.faults != "" {
		sched, err := failure.Parse(c.faults)
		if err == nil {
			err = nemesis.ValidateSchedule(sched, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return nil, 2
		}
		cfg.Schedule = sched
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	res, err := nemesis.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-sim: nemesis: %v\n", err)
		return nil, 1
	}
	elapsed := time.Since(start)

	if res.Shards > 1 {
		fmt.Printf("abd-sim: nemesis seed %d: %d groups x %d replicas: %d ok, %d pending/timed-out ops in %v\n",
			c.seed, res.Shards, c.n, res.Ops, res.Failed, elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("abd-sim: nemesis seed %d: %d ok, %d pending/timed-out ops in %v\n",
			c.seed, res.Ops, res.Failed, elapsed.Round(time.Millisecond))
	}
	fmt.Printf("abd-sim: schedule: %s\n", res.Schedule)
	fmt.Printf("abd-sim: chaos: %+v\n", res.Chaos)
	fmt.Printf("abd-sim: transport: dials=%d dial_failures=%d write_failures=%d write_timeouts=%d "+
		"suppressed=%d resets=%d\n",
		res.Transport.Dials, res.Transport.DialFailures, res.Transport.WriteFailures,
		res.Transport.WriteTimeouts, res.Transport.SuppressedSends, res.Transport.Resets)
	fmt.Printf("abd-sim: client: phases=%d retransmits=%d msgs_sent=%d\n",
		res.Client.Phases, res.Client.Retransmits, res.Client.MsgsSent)
	if res.Byzantine > 0 {
		fmt.Printf("abd-sim: byzantine (f=%d): lies=%d muted=%d suspects=%v unconfirmed=%d mask_retries=%d\n",
			res.Byzantine, res.Lies, res.Muted,
			res.Health.Byzantine.Suspects, res.Client.ByzUnconfirmed, res.Client.MaskRetries)
	}
	fmt.Printf("abd-sim: traces: %d spans (%d dropped), stitch %d/%d (%.1f%%) across %d traces\n",
		len(res.Spans), res.SpansDropped, res.Stitch.Stitched, res.Stitch.Total,
		100*res.Stitch.Ratio(), res.Stitch.Traces)

	if c.traceOut != "" {
		err := save(c.traceOut, fmt.Sprintf("traces (%d spans)", len(res.Spans)), func(w io.Writer) error {
			j := obs.NewJSONL(w)
			for _, s := range res.Spans {
				j.Emit(s)
			}
			return j.Close()
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return nil, 1
		}
	}
	return res, 0
}

// experiments prints the tables of the experiments -exp names.
func (c *config) experiments() int {
	var runners []experiments.Runner
	if strings.EqualFold(c.exp, "all") {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(c.exp, ",") {
			r, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "abd-sim: unknown experiment %q (want %s, or all)\n", id, experiments.Menu())
				return 2
			}
			runners = append(runners, r)
		}
	}

	fmt.Printf("# ABD evaluation run: %d experiment(s), quick=%v, seed=%d\n\n", len(runners), c.quick, c.seed)
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(experiments.Options{Quick: c.quick, Seed: c.seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %s: %v\n", r.ID, err)
			return 1
		}
		tbl.Format(os.Stdout)
		fmt.Printf("   (%s took %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// readHistory loads a recorded history; a nonzero status means it could
// not.
func readHistory(path string) ([]history.Op, int) {
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return nil, 2
		}
		defer f.Close()
	}
	ops, err := history.ReadJSON(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
		return nil, 2
	}
	return ops, 0
}

// save writes one output file — a history or a span dump — and reports
// what went into it.
func save(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("abd-sim: %s written to %s\n", what, path)
	return nil
}

// verdict prints a checked history's verdict — one line per register in
// name order (with its replica group when groupOf maps it, and with
// witness a linearization order), then the overall line — and returns the
// exit status: 0 linearizable, 1 not linearizable, 3 undecided.
func verdict(ops []history.Op, results map[string]lincheck.Result, groupOf map[string]int, witness bool) int {
	var explored int64
	for _, reg := range slices.Sorted(maps.Keys(results)) {
		res := results[reg]
		explored += res.StatesExplored
		where := ""
		if g, ok := groupOf[reg]; ok {
			where = fmt.Sprintf(" group %d:", g)
		}
		fmt.Printf("abd-sim: register %-8q%s %s\n", reg, where, res.Outcome)
		if witness {
			for _, i := range res.Witness {
				fmt.Printf("    [%d] client %d %s %q\n", i, ops[i].Client, ops[i].Kind, ops[i].Value)
			}
		}
	}
	outcome := lincheck.AllLinearizable(results)
	fmt.Printf("abd-sim: history of %d ops over %d register(s) is %s (states explored: %d)\n",
		len(ops), len(results), outcome, explored)
	switch outcome {
	case lincheck.NotLinearizable:
		return 1
	case lincheck.Unknown:
		return 3
	}
	return 0
}
