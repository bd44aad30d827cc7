// Command abd-sim runs a scripted scenario on the simulated network:
// a concurrent read/write workload against an ABD cluster, with an optional
// fault schedule, history recording, and linearizability checking.
//
// Usage:
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
// n >= 4F+1), the linearizability check is forced on, and the per-register
// verdicts plus the validation counters are printed. A fabricator that never
// stops is masked (unconfirmed) but never named a suspect: an honest replica
// holding a crashed writer's partial write could send the same replies.
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
// generated schedule faults two groups at once, the linearizability verdict
// is per register, and the register→group map is printed.
//
//	abd-sim -nemesis -groups 3 -seed 404
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/nemesis"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/types"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n        = flag.Int("n", 5, "replica count")
		writers  = flag.Int("writers", 2, "concurrent writer clients")
		readers  = flag.Int("readers", 3, "concurrent reader clients")
		ops      = flag.Int("ops", 20, "operations per client")
		regs     = flag.Int("regs", 0, "number of registers the workload spreads over (0 = auto: 1, or 2x groups in sharded nemesis mode)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		minDelay = flag.Duration("min-delay", 0, "min one-way message delay")
		maxDelay = flag.Duration("max-delay", 2*time.Millisecond, "max one-way message delay")
		faults   = flag.String("faults", "", "fault script (see internal/failure)")
		mode     = flag.String("mode", "atomic", "protocol variant: atomic | regular")
		check    = flag.Bool("check", false, "run the linearizability checker on the history")
		out      = flag.String("out", "", "write the history as JSON lines to this file")
		opT      = flag.Duration("op-timeout", 2*time.Second, "per-operation deadline")
		nem      = flag.Bool("nemesis", false, "run on a real TCP cluster with chaos injection and crash+restart (see internal/nemesis)")
		groups   = flag.Int("groups", 1, "nemesis mode: replica groups (shards) of n replicas each behind sharded stores")
		byz      = flag.Int("byz", 0, "Byzantine faults to tolerate: this many replicas lie (fabricated max-tags) and clients validate reads with WithByzantine (requires n >= 4*byz+1)")
		traceOut = flag.String("trace-out", "", "nemesis mode: write every collected span as JSONL to this file (analyze with abd-trace)")
	)
	flag.Parse()

	if *byz > 0 && *n < 4**byz+1 {
		fmt.Fprintf(os.Stderr, "abd-sim: -byz %d needs n >= %d replicas (one-round f+1 validation), got -n %d\n",
			*byz, 4**byz+1, *n)
		return 2
	}
	if *nem {
		return runNemesis(*n, *groups, *writers, *readers, *ops, *regs, *seed, *byz, *faults, *out, *traceOut)
	}
	if *traceOut != "" {
		fmt.Fprintln(os.Stderr, "abd-sim: -trace-out requires -nemesis")
		return 2
	}
	if *groups > 1 {
		fmt.Fprintln(os.Stderr, "abd-sim: -groups requires -nemesis")
		return 2
	}
	if *regs <= 0 {
		*regs = 1
	}

	var copts []core.ClientOption
	switch *mode {
	case "atomic":
	case "regular":
		copts = append(copts, core.WithReadMode(core.ReadRegular))
	default:
		fmt.Fprintf(os.Stderr, "abd-sim: unknown mode %q\n", *mode)
		return 2
	}
	if *byz > 0 {
		if *mode == "regular" {
			fmt.Fprintln(os.Stderr, "abd-sim: -byz needs the write-back (it repairs honest laggards); -mode regular is incompatible")
			return 2
		}
		copts = append(copts, core.WithByzantine(*byz))
		// A Byzantine run without the checker proves nothing: force it on.
		*check = true
	}

	sched, err := failure.Parse(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
		return 2
	}

	net := netsim.New(netsim.Config{Seed: *seed, MinDelay: *minDelay, MaxDelay: *maxDelay})
	defer net.Close()
	ids := make([]types.NodeID, *n)
	for i := 0; i < *n; i++ {
		ids[i] = types.NodeID(i)
		// The last -byz replicas are the lying minority: their replies are
		// rewritten on the wire (core.Liar) to fabricate an enormous max-tag
		// on every read query — the strongest attack on a max-timestamp read
		// protocol.
		if *n-i <= *byz {
			liar := core.NewLiar(ids[i], *seed)
			liar.SetMode(core.ByzFabricate)
			net.SetInterceptor(ids[i], liar.Intercept)
			fmt.Printf("abd-sim: replica %d is Byzantine (fabricate)\n", i)
		}
		r := core.NewReplica(ids[i], net.Node(ids[i]))
		r.Start()
		defer r.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	go func() {
		if err := sched.Run(ctx, net); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "abd-sim: fault schedule: %v\n", err)
		}
	}()

	rec := history.NewRecorder()
	var wg sync.WaitGroup
	var pendingOps, okOps int64
	var mu sync.Mutex

	nextID := types.NodeID(10000)
	var allClients core.Fleet
	mkClient := func() (*core.Client, error) {
		id := nextID
		nextID++
		cli, err := core.NewClient(id, net.Node(id), ids, copts...)
		if err == nil {
			allClients = append(allClients, cli)
		}
		return cli, err
	}

	start := time.Now()
	for w := 0; w < *writers; w++ {
		cli, err := mkClient()
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		defer cli.Close()
		wg.Add(1)
		go func(id int, cli *core.Client) {
			defer wg.Done()
			for j := 0; j < *ops; j++ {
				reg := fmt.Sprintf("x%d", j%*regs)
				val := []byte(fmt.Sprintf("w%d-%d", id, j))
				p := rec.BeginWriteReg(id, reg, val)
				octx, ocancel := context.WithTimeout(ctx, *opT)
				err := cli.Write(octx, reg, val)
				ocancel()
				if err != nil {
					p.Crash()
					mu.Lock()
					pendingOps++
					mu.Unlock()
					continue
				}
				p.EndWrite()
				mu.Lock()
				okOps++
				mu.Unlock()
			}
		}(w, cli)
	}
	for r := 0; r < *readers; r++ {
		cli, err := mkClient()
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		defer cli.Close()
		wg.Add(1)
		go func(id int, cli *core.Client) {
			defer wg.Done()
			for j := 0; j < *ops; j++ {
				reg := fmt.Sprintf("x%d", j%*regs)
				p := rec.BeginReadReg(id, reg)
				octx, ocancel := context.WithTimeout(ctx, *opT)
				v, err := cli.Read(octx, reg)
				ocancel()
				if err != nil {
					p.Crash()
					mu.Lock()
					pendingOps++
					mu.Unlock()
					continue
				}
				p.EndRead(v)
				mu.Lock()
				okOps++
				mu.Unlock()
			}
		}(*writers+r, cli)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := net.Stats()
	fmt.Printf("abd-sim: %d ok, %d pending/timed-out ops in %v (%d messages sent, %d dropped)\n",
		okOps, pendingOps, elapsed.Round(time.Millisecond), st.Sent, st.Dropped)

	// Latency profile, merged over every client's obs histograms. Only
	// completed operations record, so the pending ops above are absent.
	lat := allClients.Latency()
	row := func(kind string, s obs.HistSnapshot) {
		if s.Count == 0 {
			return
		}
		fmt.Printf("  %-22s %6d  p50=%-9v p95=%-9v p99=%-9v max=%v\n",
			kind, s.Count, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.MaxValue())
	}
	fmt.Printf("abd-sim: latency over %d client(s):\n", len(allClients))
	row("read", lat.Read)
	row("write", lat.Write)
	row("phase: query", lat.PhaseQuery)
	row("phase: update/wb", lat.PhaseUpdate)
	row("net one-way delay", st.Delay)

	histOps := rec.Ops()
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		if err := history.WriteJSON(f, histOps); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		fmt.Printf("abd-sim: history (%d ops) written to %s\n", len(histOps), *out)
	}

	if b := allClients.Byzantine(); b != nil {
		fmt.Printf("abd-sim: byzantine validation (f=%d): suspects=%v unconfirmed=%d mask_retries=%d\n",
			b.ToleratedFaults, b.Suspects, b.Unconfirmed, b.MaskRetries)
	}

	if *check {
		results := lincheck.CheckRegisters(histOps, lincheck.Config{Timeout: time.Minute})
		outcome := lincheck.AllLinearizable(results)
		if *byz > 0 {
			// The Byzantine verdict is per register: print each one.
			regNames := make([]string, 0, len(results))
			for reg := range results {
				regNames = append(regNames, reg)
			}
			sort.Strings(regNames)
			for _, reg := range regNames {
				fmt.Printf("abd-sim: register %-8q %s\n", reg, results[reg].Outcome)
			}
		}
		fmt.Printf("abd-sim: history of %d ops over %d register(s) is %s\n",
			len(histOps), len(results), outcome)
		if outcome == lincheck.NotLinearizable {
			for reg, res := range results {
				if res.Outcome == lincheck.NotLinearizable {
					fmt.Printf("abd-sim: register %q NOT linearizable\n", reg)
				}
			}
			return 1
		}
	}
	return 0
}

// runNemesis executes one nemesis pass (internal/nemesis): a real TCP
// cluster of persistent replicas under a seeded chaos schedule, with the
// recorded history always checked for linearizability. A non-empty fault
// script overrides the generated schedule.
func runNemesis(n, groups, writers, readers, ops, regs int, seed int64, byz int, faults, out, traceOut string) int {
	cfg := nemesis.Config{
		N: n, Groups: groups, Writers: writers, Readers: readers,
		OpsPerClient: ops, Registers: regs, Seed: seed, Byzantine: byz,
	}
	if faults != "" {
		sched, err := failure.Parse(faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 2
		}
		if err := nemesis.ValidateSchedule(sched, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 2
		}
		cfg.Schedule = sched
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	res, err := nemesis.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-sim: nemesis: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)

	if res.Shards > 1 {
		fmt.Printf("abd-sim: nemesis seed %d: %d groups x %d replicas: %d ok, %d pending/timed-out ops in %v\n",
			seed, res.Shards, n, res.Ops, res.Failed, elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("abd-sim: nemesis seed %d: %d ok, %d pending/timed-out ops in %v\n",
			seed, res.Ops, res.Failed, elapsed.Round(time.Millisecond))
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

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		j := obs.NewJSONL(f)
		for _, s := range res.Spans {
			j.Emit(s)
		}
		if err := j.Close(); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		fmt.Printf("abd-sim: traces (%d spans) written to %s\n", len(res.Spans), traceOut)
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		if err := history.WriteJSON(f, res.History); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "abd-sim: %v\n", err)
			return 1
		}
		fmt.Printf("abd-sim: history (%d ops) written to %s\n", len(res.History), out)
	}

	if res.Shards > 1 {
		// Per-register shard placement and verdict: the sharded guarantee is
		// per register, so show exactly what was checked and where it lived.
		regNames := make([]string, 0, len(res.Results))
		for reg := range res.Results {
			regNames = append(regNames, reg)
		}
		sort.Strings(regNames)
		for _, reg := range regNames {
			fmt.Printf("abd-sim: register %-8q group %d: %s\n",
				reg, res.RegisterShard[reg], res.Results[reg].Outcome)
		}
	}
	fmt.Printf("abd-sim: history of %d ops over %d register(s) is %s\n",
		len(res.History), len(res.Results), res.Outcome)
	if res.Outcome == lincheck.NotLinearizable {
		for reg, r := range res.Results {
			if r.Outcome == lincheck.NotLinearizable {
				fmt.Printf("abd-sim: register %q NOT linearizable\n", reg)
			}
		}
		return 1
	}
	return 0
}
