package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/obs"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

// runConfig is one measured run of one workload.
type runConfig struct {
	W      workload
	Seed   int64
	Shape  shape
	Layers bool // a per-layer run: scrapes, probes and a traced window; its end-to-end numbers are not used
	// SpareSetups is how many throwaway set-ups are timed besides the
	// measured cluster's: half before it, half after the run. setup_s is the
	// median of all of them.
	SpareSetups int
}

// runResult is everything one run measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	E2E       map[string]float64 `json:"end_to_end,omitempty"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Tail      map[string]float64 `json:"tail"`    // whole-window p50s and the p99s: printed, never gated (README, "What is not an end-to-end metric")
	Samples   map[string]int     `json:"samples"` // sample count beside each latency metric
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Correct   bool               `json:"correct"`
	Valid     bool               `json:"valid"` // false when the generator itself ran late (lag p99 over 1 ms)
	Problems  []string           `json:"problems,omitempty"`
	Rungs     []rungReport       `json:"rungs"`
	LagUs     [3]float64         `json:"lag_us"` // generator lag in the steady window: p50, p99 of the median second, max
	Audit     auditReport        `json:"audit"`
}

// auditReport says how much history lincheck was given and how long it took,
// so that its time budget can be seen to be ample.
type auditReport struct {
	Ops     int     `json:"ops"`
	TookMs  float64 `json:"took_ms"`
	ByZones int     `json:"by_zones"` // registers lincheck ran out of time on, decided by zoneCheck
}

type rungReport struct {
	K       int     `json:"k"`
	Rate    float64 `json:"rate_ops_s"`
	P99us   float64 `json:"p99_us"`
	Failed  int     `json:"failed"`
	Backlog int     `json:"backlog"`
	Pass    bool    `json:"pass"`
}

// loadClients is a fleet of core.Clients with library-default options, each
// on its own default-configured tcpnet endpoint, which dials one connection
// per replica.
type loadClients struct {
	clients []*core.Client
	eps     []*tcpnet.Endpoint
}

func newLoadClients(c *cluster, n int, baseID types.NodeID, tracer obs.Tracer) (*loadClients, error) {
	peers, order := c.peers()
	lc := &loadClients{}
	for i := 0; i < n; i++ {
		id := baseID + types.NodeID(i)
		ep, err := tcpnet.Listen(tcpnet.Config{ID: id, Peers: peers, Tracer: tracer})
		if err != nil {
			lc.close()
			return nil, err
		}
		var opts []core.ClientOption
		if tracer != nil {
			opts = append(opts, core.WithTracer(tracer))
		}
		cl, err := core.NewClient(id, ep, order, opts...)
		if err != nil {
			ep.Close()
			lc.close()
			return nil, err
		}
		lc.clients = append(lc.clients, cl)
		lc.eps = append(lc.eps, ep)
	}
	return lc, nil
}

func (lc *loadClients) close() {
	for _, cl := range lc.clients {
		cl.Close() // closes the endpoint it owns
	}
}

// connected reports whether every endpoint holds a connection to every
// replica, which is how the crash workload knows the restarted replica is
// back in every client's quorum pool.
func (lc *loadClients) connected() bool {
	for _, ep := range lc.eps {
		if st := ep.Stats(); st.ConnsActive < replicas || st.BreakersOpen > 0 {
			return false
		}
	}
	return true
}

// driver binds a schedule to a cluster: it is the opFunc, the preload, the
// fault events and the after-run checks.
type driver struct {
	w        workload
	sched    *schedule
	cluster  *cluster
	plain    *loadClients
	traced   *loadClients // nil unless a traced window runs
	tracedAt int          // arrivals at or beyond this index go through the traced clients
	regNames []string
	audit    []bool
	rec      *history.Recorder

	badReads    atomic.Int64 // reads that returned a value no write put there
	restartedIn atomic.Int64 // replay_s in ns: restart → replica accepting again
	eventWG     sync.WaitGroup

	mu       sync.Mutex
	problems []string
}

func regName(i int) string { return fmt.Sprintf("r%04d", i) }

// auditSet picks the registers whose whole history is checked for
// linearizability: the four lowest ranks (the hottest under zipf) and four
// spread over the rest of the key space.
func auditSet(n int) []bool {
	a := make([]bool, n)
	for _, i := range []int{0, 1, 2, 3, n / 4, n / 2, 3 * n / 4, n - 1} {
		a[i] = true
	}
	return a
}

func (d *driver) problem(format string, args ...any) {
	d.mu.Lock()
	if len(d.problems) < 8 {
		d.problems = append(d.problems, fmt.Sprintf(format, args...))
	}
	d.mu.Unlock()
}

func (d *driver) op(ctx context.Context, i int, a arrival) (bool, error) {
	lc := d.plain
	if d.traced != nil && i >= d.tracedAt {
		lc = d.traced
	}
	cl := lc.clients[a.Client]
	reg := d.regNames[a.Reg]
	audit := d.audit[a.Reg]
	if a.Kind == opRead {
		var p *history.PendingOp
		if audit {
			p = d.rec.BeginReadReg(int(a.Client), reg)
		}
		v, err := cl.Read(ctx, reg)
		if err != nil {
			d.problem("read %s: %v", reg, err)
			return false, err
		}
		if p != nil {
			p.EndRead(v)
		}
		if err := d.sched.checkRead(v, a.Reg, d.w.ValueBytes); err != nil {
			d.badReads.Add(1)
			d.problem("read %s: %v", reg, err)
			return true, nil
		}
		return false, nil
	}
	val := makeValue(d.w.ValueBytes, a.Reg, uint32(a.Client), uint64(i))
	var p *history.PendingOp
	if audit {
		p = d.rec.BeginWriteReg(int(a.Client), reg, val)
	}
	if err := cl.Write(ctx, reg, val); err != nil {
		if p != nil {
			p.Crash() // it may or may not have taken effect
		}
		d.problem("write %s: %v", reg, err)
		return false, err
	}
	if p != nil {
		p.EndWrite()
	}
	return false, nil
}

// preload writes every register once, 32 at a time, so that no measured
// read finds an empty register and no measured write creates one.
func (d *driver) preload(ctx context.Context) error {
	sem := make(chan struct{}, 32)
	var wg sync.WaitGroup
	var first atomic.Value
	for r := 0; r < d.w.Registers; r++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			octx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			cl := d.plain.clients[r%len(d.plain.clients)]
			val := makeValue(d.w.ValueBytes, uint32(r), 0, preloadSeq+uint64(r))
			var p *history.PendingOp
			if d.audit[r] {
				p = d.rec.BeginWriteReg(0, d.regNames[r], val)
			}
			if err := cl.Write(octx, d.regNames[r], val); err != nil {
				first.CompareAndSwap(nil, fmt.Errorf("preload %s: %w", d.regNames[r], err))
				if p != nil {
					p.Crash()
				}
				return
			}
			if p != nil {
				p.EndWrite()
			}
		}(r)
	}
	wg.Wait()
	if err, _ := first.Load().(error); err != nil {
		return err
	}
	return nil
}

// event runs a fault event off the dispatcher's goroutine.
func (d *driver) event(kind opKind) {
	n := d.cluster.nodes[replicas-1]
	d.eventWG.Add(1)
	go func() {
		defer d.eventWG.Done()
		switch kind {
		case evKill:
			n.kill()
		case evRestart:
			t0 := time.Now()
			if err := n.start(d.cluster.ws.bin); err != nil {
				d.problem("restart: %v", err)
				return
			}
			if err := n.waitReady(context.Background(), 10*time.Second); err != nil {
				d.problem("restart: %v", err)
				return
			}
			d.restartedIn.Store(int64(time.Since(t0)))
		}
	}()
}

// setUp spawns a cluster, connects the clients and preloads every register.
// This is the interval setup_s times; the go build is not in it.
func setUp(ctx context.Context, ws *workspace, cfg runConfig, sched *schedule) (*driver, time.Duration, error) {
	t0 := time.Now()
	c, err := startCluster(ctx, ws, cfg.Layers)
	if err != nil {
		return nil, 0, err
	}
	d := &driver{
		w: cfg.W, sched: sched, cluster: c,
		regNames: make([]string, cfg.W.Registers),
		audit:    auditSet(cfg.W.Registers),
		rec:      history.NewRecorder(),
	}
	for i := range d.regNames {
		d.regNames[i] = regName(i)
	}
	if d.plain, err = newLoadClients(c, loadClientCount, 1000, nil); err == nil {
		err = d.preload(ctx)
	}
	if err != nil {
		d.tearDown()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// tearDown closes the clients, reaps every node and removes the cluster's
// files. It is the only exit from a set-up, on success and on every error.
func (d *driver) tearDown() {
	d.eventWG.Wait() // a restart in progress must finish before its process can be reaped
	if d.plain != nil {
		d.plain.close()
	}
	if d.traced != nil {
		d.traced.close()
	}
	d.cluster.stop()
	d.cluster.remove()
}

// plan lays out the phases of a run and returns their indexes.
type plan struct {
	specs                            []phaseSpec
	warm, steady, recover, rung0, tr int // phase indexes; -1 = absent
	rungs                            int
}

func planFor(cfg runConfig) plan {
	w, sh := cfg.W, cfg.Shape
	p := plan{recover: -1, tr: -1, rungs: sh.Rungs}
	add := func(name string, rate float64, dur time.Duration) int {
		p.specs = append(p.specs, phaseSpec{Name: name, Rate: rate, Dur: dur})
		return len(p.specs) - 1
	}
	p.warm = add("warm-up", w.RefRate, sh.Warmup)
	p.steady = add("steady", w.RefRate, sh.Steady)
	if w.Crash && sh.Rungs > 0 {
		p.recover = add("recover", w.RefRate, sh.Recover)
	}
	p.rung0 = len(p.specs)
	for k := 0; k < sh.Rungs; k++ {
		add(fmt.Sprintf("rung-%d", ladderFirstK+k), ladderRate(w.RefRate, ladderFirstK+k), sh.Rung)
	}
	if sh.Traced > 0 {
		p.tr = add("traced", w.RefRate, sh.Traced)
	}
	return p
}

// runOnce performs one run: set-up(s), warm-up, steady window, then — on a
// per-layer run — ladder and traced window, then checks and tear-down.
func runOnce(ctx context.Context, ws *workspace, cfg runConfig) (res *runResult, err error) {
	pl := planFor(cfg)
	sched := buildSchedule(cfg.W, cfg.Seed, pl.specs, loadClientCount)
	if cfg.W.Crash {
		kill, restart := crashTimes(cfg.Shape.Steady)
		sched.insertEvent(pl.steady, kill, evKill)
		sched.insertEvent(pl.steady, restart, evRestart)
	}

	setups, err := timeSetUps(ctx, ws, cfg, sched, cfg.SpareSetups/2)
	if err != nil {
		return nil, err
	}
	d, took, err := setUp(ctx, ws, cfg, sched)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, took.Seconds())
	defer d.tearDown()

	var sink *obs.Collector
	if pl.tr >= 0 {
		sink = obs.NewCollector(1 << 21)
		if d.traced, err = newLoadClients(d.cluster, loadClientCount, 2000, sink); err != nil {
			return nil, err
		}
		d.tracedAt = sched.Phases[pl.tr].First
		// One untimed read per traced client, so the traced window does not
		// pay for its connections.
		for _, cl := range d.traced.clients {
			octx, cancel := context.WithTimeout(ctx, 5*time.Second)
			_, err := cl.Read(octx, d.regNames[0])
			cancel()
			if err != nil {
				return nil, fmt.Errorf("traced client warm-up: %w", err)
			}
		}
	}

	g := newGenerator(sched, d.op)
	g.event = d.event
	cancelled := func() bool { return ctx.Err() != nil }

	g.runPhase(pl.warm, cancelled)
	before := d.snapshot(ctx, cfg.Layers)
	g.inFlightMax.Store(0)
	g.runPhase(pl.steady, cancelled)
	d.rec.BeginReadReg(0, auditCut).EndRead(nil)
	after := d.snapshot(ctx, cfg.Layers)
	inFlightMax := g.inFlightMax.Load()

	if pl.recover >= 0 {
		// Keep the reference load on until every client has its connection
		// to the restarted replica back, so that the ladder climbs on a
		// recovered cluster and not on whatever the redial backoff left.
		var last time.Time
		g.runPhase(pl.recover, func() bool {
			if cancelled() {
				return true
			}
			if time.Since(last) < 20*time.Millisecond {
				return false
			}
			last = time.Now()
			return d.plain.connected()
		})
	}

	var rungs []rungStats
	var satGoodput float64
	if pl.rungs > 0 {
		rungs, satGoodput = runLadder(g, pl, cancelled)
	}
	g.wait()
	if pl.tr >= 0 {
		g.runPhase(pl.tr, cancelled)
		g.wait()
	}
	d.eventWG.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res = &runResult{Workload: cfg.W.Name, Seed: cfg.Seed, Samples: map[string]int{}, Correct: true, Valid: true}
	steady := g.samples(pl.steady)
	res.Attempted, res.Failed = steady.Attempted, steady.Failed
	for p := pl.steady + 1; p < pl.rung0+pl.rungs; p++ { // recovery and ladder count too
		s := g.samples(p)
		res.Attempted += s.Attempted
		res.Failed += s.Failed
	}
	if steady.Failed > 0 {
		res.Correct = false
		d.problem("%d of %d operations failed in the steady window at ref_rate", steady.Failed, steady.Attempted)
	}
	if steady.Completed == 0 || len(steady.Reads) == 0 || len(steady.Writes) == 0 {
		return nil, fmt.Errorf("steady window completed no reads or no writes")
	}

	// End-to-end metrics, and the tail that is printed beside them.
	cpu := after.selfCPU - before.selfCPU
	var nodeCPU time.Duration
	for i := range after.nodeCPU {
		nodeCPU += after.nodeCPU[i] - before.nodeCPU[i]
	}
	ops := float64(steady.Completed)
	res.E2E = map[string]float64{
		"read_p50_us":   micros(quietPercentile(steady.Reads, steady.Dur, 0.50)),
		"write_p50_us":  micros(quietPercentile(steady.Writes, steady.Dur, 0.50)),
		"cpu_us_per_op": micros(cpu+nodeCPU) / ops,
	}
	res.Tail = map[string]float64{
		"read_p99_us":        micros(quietPercentile(steady.Reads, steady.Dur, 0.99)),
		"write_p99_us":       micros(quietPercentile(steady.Writes, steady.Dur, 0.99)),
		"read_p50_whole_us":  micros(wholePercentile(steady.Reads, 0.50)),
		"write_p50_whole_us": micros(wholePercentile(steady.Writes, 0.50)),
		"read_p99_whole_us":  micros(wholePercentile(steady.Reads, 0.99)),
		"write_p99_whole_us": micros(wholePercentile(steady.Writes, 0.99)),
	}
	res.Samples["read"], res.Samples["write"] = len(steady.Reads), len(steady.Writes)
	maxRate := cfg.W.RefRate // floor: the first rung of the ladder failed
	if n := passedRungs(rungs); n > 0 {
		maxRate = sched.Phases[pl.rung0+n-1].Rate
	}
	for k, r := range rungs {
		res.Rungs = append(res.Rungs, rungReport{
			K: ladderFirstK + k, Rate: sched.Phases[pl.rung0+k].Rate, P99us: micros(r.P99),
			Failed: r.Failed, Backlog: r.Backlog, Pass: r.passes(),
		})
	}
	// The generator's own lateness, judged on the median second so that one
	// stall of the sandbox does not condemn a run the generator kept up with.
	lagP99 := slicedPercentile(steady.Lags, steady.Dur, int(steady.Dur/sliceLen), 0.99, 0.5)
	res.LagUs = [3]float64{micros(wholePercentile(steady.Lags, 0.50)), micros(lagP99), micros(wholePercentile(steady.Lags, 1))}
	if lagP99 > time.Millisecond {
		res.Valid = false
		d.problem("generator lag p99 %.0f µs is over 1 ms on the median second: the box could not hold the schedule, the run is invalid", micros(lagP99))
	}

	// Correctness: read values were checked as they arrived; now the final
	// state and the audited histories.
	if d.badReads.Load() > 0 {
		res.Correct = false
	}
	if err := d.checkFinal(ctx, g); err != nil {
		res.Correct = false
		d.problem("final state: %v", err)
	}
	if res.Audit, err = d.checkHistories(auditBudget); err != nil {
		res.Correct = false
		d.problem("lincheck: %v", err)
	}

	if cfg.Layers {
		res.Layers = layerMetrics(before, after, steady, layerExtras{
			loadgenCPU: cpu, nodeCPU: nodeCPU, lagP99: lagP99, inFlightMax: inFlightMax,
			satGoodput: satGoodput, replay: time.Duration(d.restartedIn.Load()),
			maxRate: maxRate, readP99: res.Tail["read_p99_whole_us"], writeP99: res.Tail["write_p99_whole_us"],
		})
		// The nodes flush their span files on SIGTERM; only then can the
		// traced window be stitched.
		d.plain.close()
		d.traced.close()
		for _, n := range d.cluster.nodes {
			n.terminate()
		}
		traced := g.samples(pl.tr)
		if err := traceMetrics(res.Layers, d.cluster, sink.Spans(), steady, traced); err != nil {
			return nil, err
		}
		if err := probeMetrics(res.Layers, ws, cfg.W.ValueBytes); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	d.mu.Lock()
	res.Problems = append(res.Problems, d.problems...)
	d.mu.Unlock()

	d.tearDown() // the deferred call then finds nothing left to do
	late, err := timeSetUps(ctx, ws, cfg, sched, cfg.SpareSetups-cfg.SpareSetups/2)
	if err != nil {
		return nil, err
	}
	res.E2E["setup_s"] = median(append(setups, late...))
	return res, nil
}

// timeSetUps sets up and tears down n times and returns how long each
// set-up took, in seconds.
func timeSetUps(ctx context.Context, ws *workspace, cfg runConfig, sched *schedule, n int) ([]float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		d, t, err := setUp(ctx, ws, cfg, sched)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d.tearDown()
		took = append(took, t.Seconds())
	}
	return took, nil
}

// runLadder climbs the rungs and stops at the first one that fails. A rung
// is judged 25 ms after it ends, so that the operations due in its last
// moments have had time to complete; what is still pending then is over the
// latency limit in any case. A rung also ends, failed, the moment half the
// in-flight cap is in use: the backlog is by then far over 1% of any rung's
// arrivals, and stopping there keeps the overload from shedding or timing
// out a single operation. It returns every judged rung — all of them
// passing except, unless the ladder ran out of rungs, the last — and the
// completions per second while the failing rung ran.
func runLadder(g *generator, pl plan, cancelled func() bool) ([]rungStats, float64) {
	const grace = 25 * time.Millisecond
	stop := func() bool { return g.inFlight.Load() > maxInFlight/2 || cancelled() }
	var verdicts []rungStats
	for k := 0; k < pl.rungs && !cancelled(); k++ {
		p := pl.rung0 + k
		g.runPhase(p, stop)
		ran := time.Since(g.started[p])
		time.Sleep(grace)
		rs := g.rung(p)
		verdicts = append(verdicts, rs)
		if !rs.passes() {
			g.wait()
			return verdicts, completedDuring(g, pl.rung0, p, ran)
		}
	}
	g.wait()
	return verdicts, 0
}

// completedDuring is the saturated goodput: the operations per second that
// completed while rung `last` was running (for `ran`), whichever rung they
// were due in.
func completedDuring(g *generator, rung0, last int, ran time.Duration) float64 {
	start, end := g.started[last], g.started[last].Add(ran)
	done := 0
	for q := rung0; q <= last; q++ {
		qh := g.sched.Phases[q]
		for i := qh.First; i < qh.End; i++ {
			if r := &g.results[i]; r.Status() == stOK {
				at := g.started[q].Add(g.sched.Arrivals[i].Due + r.Lat)
				if !at.Before(start) && at.Before(end) {
					done++
				}
			}
		}
	}
	return float64(done) / ran.Seconds()
}

// checkFinal reads every register through a fresh client and requires the
// last acknowledged write or a later one: the value read must come from a
// write W such that no acknowledged write to the register was invoked
// after W was acknowledged.
func (d *driver) checkFinal(ctx context.Context, g *generator) error {
	// Latest invocation among acknowledged writes, and each write's ack
	// time, per register, on one clock (offsets from the first phase start).
	type wr struct{ inv, ack time.Duration }
	origin := g.started[0]
	writes := make(map[int]wr)
	lastInv := make([]time.Duration, d.w.Registers)
	for p, ph := range d.sched.Phases {
		if g.started[p].IsZero() {
			continue
		}
		base := g.started[p].Sub(origin)
		for i := ph.First; i < ph.End; i++ {
			a, r := d.sched.Arrivals[i], &g.results[i]
			if a.Kind != opWrite || r.Status() != stOK {
				continue
			}
			w := wr{inv: base + a.Due + r.Lag, ack: base + a.Due + r.Lat}
			writes[i] = w
			if w.inv > lastInv[a.Reg] {
				lastInv[a.Reg] = w.inv
			}
		}
	}

	fresh, err := newLoadClients(d.cluster, 1, 3000, nil)
	if err != nil {
		return err
	}
	defer fresh.close()
	cl := fresh.clients[0]
	sem := make(chan struct{}, 32)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for r := 0; r < d.w.Registers; r++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			octx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			v, err := cl.Read(octx, d.regNames[r])
			if err != nil {
				fail(fmt.Errorf("read %s: %w", d.regNames[r], err))
				return
			}
			if v == nil {
				fail(fmt.Errorf("%s is empty after being preloaded", d.regNames[r]))
				return
			}
			if err := d.sched.checkRead(v, uint32(r), d.w.ValueBytes); err != nil {
				fail(fmt.Errorf("%s: %w", d.regNames[r], err))
				return
			}
			_, _, seq, _ := decodeValue(v, d.w.ValueBytes)
			var ack time.Duration // the preload was acknowledged before the clock started
			if seq < preloadSeq {
				w, acked := writes[int(seq)]
				if !acked {
					return // a write that failed or timed out may still have landed
				}
				ack = w.ack
			}
			if lastInv[r] > ack {
				fail(fmt.Errorf("%s holds write %d, acknowledged at %v, but a write invoked at %v was acknowledged too",
					d.regNames[r], seq, ack, lastInv[r]))
			}
		}(r)
	}
	wg.Wait()
	return firstErr
}

// auditCut names the marker the run drops into the recorder when the
// steady window ends.
const auditCut = "__steady-ends"

// checkHistories runs lincheck over the audited registers' histories up to
// the end of the steady window: preload, warm-up and steady window, with
// whatever was still in flight at the cut treated as pending. The ladder is
// left out because its last rungs pile hundreds of concurrent operations on
// one hot register, and the checker's search is exponential in that. Each
// register gets an equal share of the budget; a history the search cannot
// decide in that time — a stall of the sandbox is enough to pile up such a
// one — is decided by zoneCheck instead. A register either of them finds
// non-linearizable fails the run.
func (d *driver) checkHistories(budget time.Duration) (rep auditReport, err error) {
	t0 := time.Now()
	defer func() { rep.TookMs = float64(time.Since(t0)) / float64(time.Millisecond) }()
	all := d.rec.Ops()
	cut := int64(0)
	for _, op := range all {
		if op.Reg == auditCut {
			cut = op.Inv
		}
	}
	ops := make([]history.Op, 0, len(all))
	for _, op := range all {
		if op.Reg == auditCut || (cut > 0 && op.Inv > cut) {
			continue
		}
		if cut > 0 && op.Ret > cut {
			op.Ret = 0
		}
		ops = append(ops, op)
	}
	results := lincheck.CheckRegisters(ops, lincheck.Config{
		Timeout: budget / auditRegs,
		MaxOps:  1 << 20,
	})
	rep.Ops = len(ops)
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch results[name].Outcome {
		case lincheck.NotLinearizable:
			return rep, fmt.Errorf("history of %s is NOT linearizable", name)
		case lincheck.Unknown:
			rep.ByZones++
			var reg []history.Op
			for _, op := range ops {
				if op.Reg == name {
					reg = append(reg, op)
				}
			}
			if err := zoneCheck(reg); err != nil {
				return rep, fmt.Errorf("history of %s is NOT linearizable: %v", name, err)
			}
		}
	}
	return rep, nil
}
