// Package nemesis is the Jepsen-style end-to-end robustness harness: a
// real tcpnet cluster run in-process, a concurrent read/write workload
// recording a history, and a seeded fault schedule ("the nemesis")
// injecting crashes, partitions, resets, loss, and latency while the
// workload runs. Afterwards the history is checked for linearizability
// with internal/lincheck — the paper's atomicity claim, verified on a real
// network under real faults.
//
// Two fault mechanisms compose:
//
//   - Process faults: Crash stops a replica's process for real (endpoint
//     closed, goroutines gone) and Recover restarts it on the same address
//     from its persistence log, exercising the crash-recovery extension.
//   - Message faults: everything else (drop/dup/corrupt/delay/reorder,
//     connection resets, blocks, partitions) is injected by an
//     internal/chaos controller wrapped around every endpoint.
//
// The Cluster embeds the chaos controller, overriding only Crash, Recover
// and Crashed, so it is a failure.Fabric and one scripted schedule drives
// both mechanisms; GenerateSchedule derives a randomized-but-deterministic
// schedule from a seed.
package nemesis

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/health"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/shard"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

// clientBase is the node id of the first client; replicas are 0..N-1.
const clientBase types.NodeID = 9000

// ValidateSchedule checks that every node id a user-supplied schedule
// references exists in the cluster cfg describes: replica ids 0..N-1 or
// client ids clientBase..clientBase+Writers+Readers-1. The generic
// failure.Schedule.Validate cannot be used here because nemesis schedules
// legitimately reference client ids (e.g. to block client->replica links).
func ValidateSchedule(sched failure.Schedule, cfg Config) error {
	cfg = cfg.withDefaults()
	nReplicas := cfg.Groups * cfg.N
	nClients := types.NodeID((cfg.Writers + cfg.Readers) * cfg.Groups)
	for _, id := range sched.Nodes() {
		if id >= 0 && int(id) < nReplicas {
			continue
		}
		if id >= clientBase && id < clientBase+nClients {
			continue
		}
		return fmt.Errorf("nemesis: schedule references node %d; cluster has replicas 0..%d and clients %d..%d",
			id, nReplicas-1, clientBase, clientBase+nClients-1)
	}
	return nil
}

// Config parameterizes one nemesis run.
type Config struct {
	// N is the replica count per group (default 5; each group tolerates
	// (N-1)/2 crashes).
	N int
	// Groups is the number of independent replica groups (default 1). With
	// Groups > 1 the cluster runs Groups*N replicas — group g owns ids
	// g*N..g*N+N-1 — and every logical client becomes a shard.Store routing
	// each register to its owning group, so the workload, the fault
	// schedule (ShardedGenres fault two groups per window), and the
	// per-register linearizability verdicts all exercise the sharded
	// deployment end to end.
	Groups int
	// Writers and Readers are the client counts (defaults 2 and 3).
	Writers, Readers int
	// OpsPerClient is how many operations each client issues (default 40).
	OpsPerClient int
	// Registers is how many named registers the workload spreads over
	// (default 1; linearizability is checked per register).
	Registers int
	// Byzantine, when > 0, runs the cluster in Byzantine mode tolerating
	// that many lying replicas: every client validates reads with
	// core.WithByzantine (masking quorums, f+1 vouching, suspicion on
	// evidence only), and every replica carries a chaos-layer core.Liar that the
	// schedule flips between lying strategies with failure.Byz actions
	// (script syntax byz:<node>:<fabricate|stale|silent|equivocate|off>).
	// The generated schedule draws from ByzantineGenres. Requires
	// N >= 4*Byzantine+1 (enforced by the clients' quorum validation) and
	// Groups == 1.
	Byzantine int
	// Seed drives both GenerateSchedule and the chaos controller. The
	// fault plan is a pure function of the seed; delivery timing on a real
	// network of course is not.
	Seed int64
	// Dir holds the replicas' persistence logs. Empty means a fresh
	// temporary directory (removed by Close).
	Dir string
	// OpTimeout bounds each client operation (default 5s). Operations
	// that time out are recorded as pending: the checker decides whether
	// their effects are visible.
	OpTimeout time.Duration
	// OpInterval is the mean think time between a client's operations.
	// The default paces each client's OpsPerClient operations across the
	// schedule's full span (Windows x Window), so the workload actually
	// overlaps every fault episode instead of finishing before the first
	// one fires. Negative disables pacing.
	OpInterval time.Duration
	// FsyncDelay makes every WAL sync cost this much more wall-clock time
	// (core.WithFsyncDelay): a device slower than this box's page cache,
	// for runs whose point is what happens while a commit is in flight.
	FsyncDelay time.Duration
	// Schedule overrides the generated fault schedule when non-nil.
	Schedule failure.Schedule
	// Windows and Window shape the generated schedule: Windows fault
	// episodes of duration Window each (defaults 6 and 700ms).
	Windows int
	Window  time.Duration
	// CheckTimeout bounds the linearizability search (default 30s).
	CheckTimeout time.Duration
	// Tracer, when non-nil, additionally receives every span live (e.g. a
	// JSONL file for offline analysis). Tracing is always on in a nemesis
	// cluster regardless: every operation's spans — client, transport, and
	// replica side — are collected in-process and reported in Result.Spans
	// with their stitch statistics, so a run can dump a fully stitched
	// trace of every operation in the checked history.
	Tracer obs.Tracer
	// SLO overrides the objective the run's health monitor tracks (see
	// Result.Health). The zero value selects the nemesis default, tuned so
	// loss storms and latency spikes burn budget while healthy loopback
	// traffic does not (Config.healthSLO).
	SLO health.SLO
	// Recorder, when non-nil, is a flight recorder the health monitor
	// triggers on every fresh SLO burn alert (reason "slo-page" or
	// "slo-ticket"), capturing CPU/heap/goroutine profiles while the fault
	// is still biting. Captures completed by the end of the run are listed
	// in Result.Health.Captures. The caller owns the recorder (and its
	// directory); Run only triggers and waits for in-flight captures.
	Recorder *prof.Recorder
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 5
	}
	if c.Groups == 0 {
		c.Groups = 1
	}
	if c.Writers == 0 {
		c.Writers = 2
	}
	if c.Readers == 0 {
		c.Readers = 3
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 40
	}
	if c.Registers == 0 {
		// Sharded runs default to two registers per group so every group
		// sees traffic and each per-register verdict is meaningful.
		if c.Groups > 1 {
			c.Registers = 2 * c.Groups
		} else {
			c.Registers = 1
		}
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.Windows == 0 {
		c.Windows = 6
	}
	if c.Window == 0 {
		c.Window = 700 * time.Millisecond
	}
	if c.OpInterval == 0 {
		c.OpInterval = time.Duration(c.Windows) * c.Window / time.Duration(c.OpsPerClient)
	}
	if c.OpInterval < 0 {
		c.OpInterval = 0
	}
	return c
}

// replicaProc is one replica "process": its protocol state machine plus
// the real endpoint it owns.
type replicaProc struct {
	rep *core.Replica
	ep  *tcpnet.Endpoint
}

// Cluster is an in-process tcpnet cluster under nemesis control. The
// embedded chaos controller, wrapped around every endpoint, injects every
// message fault; Crash, Recover and Crashed are overridden with true
// process stop/restart. It implements failure.Fabric.
type Cluster struct {
	*chaos.Net

	cfg     Config
	dir     string
	ownsDir bool

	mu       sync.Mutex
	addrs    map[types.NodeID]string // pinned replica listen addresses
	replicas map[types.NodeID]*replicaProc
	// liars holds one chaos-layer core.Liar per replica in Byzantine mode
	// (Config.Byzantine > 0), keyed by node so a liar survives its
	// replica's crash/restart cycles. Nil otherwise. Only NewCluster writes
	// the map, so it is read without mu.
	liars map[types.NodeID]*core.Liar
	// stats accumulates transport counters of endpoints that no longer
	// exist (crashed replica generations).
	stats tcpnet.Stats

	clients   []*core.Client
	clientEPs []*tcpnet.Endpoint
	// stores holds one shard.Store per logical client when cfg.Groups > 1;
	// each store routes over cfg.Groups of the clients above.
	stores []*shard.Store

	// spans collects every layer's spans in-process; tracer is what the
	// layers emit into (the collector, fanned out to Config.Tracer too).
	spans  *obs.Collector
	tracer obs.Tracer
}

// tcpConfig is the aggressive-timeout endpoint configuration nemesis runs
// with: short enough that every self-healing mechanism (write deadline,
// dial backoff) cycles many times within one run.
func (c *Cluster) tcpConfig(id types.NodeID) tcpnet.Config {
	return tcpnet.Config{
		ID:           id,
		DialTimeout:  time.Second,
		WriteTimeout: 500 * time.Millisecond,
		BackoffMin:   20 * time.Millisecond,
		BackoffMax:   500 * time.Millisecond,
		Tracer:       c.nodeTracer(id),
	}
}

// groupOf maps a node id to its replica group: replicas by id range,
// clients by their position within their logical client's id block.
func (c *Cluster) groupOf(id types.NodeID) int {
	if id >= clientBase {
		return int(id-clientBase) % c.cfg.Groups
	}
	return int(id) / c.cfg.N
}

// nodeTracer is the tracer a node's layers emit into: the cluster-wide
// collector, shard-tagged in sharded runs so every span — client, transport,
// and replica side — carries its group.
func (c *Cluster) nodeTracer(id types.NodeID) obs.Tracer {
	if c.cfg.Groups <= 1 {
		return c.tracer
	}
	return shard.Tag(c.tracer, c.groupOf(id))
}

// NewCluster starts Groups*N persistent replicas on loopback and
// Writers+Readers logical clients, every endpoint wrapped by one seeded
// chaos controller. With Groups > 1 each logical client is a shard.Store
// over one protocol client per group (each with its own endpoint, peered
// only with its group's replicas).
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		Net:      chaos.New(cfg.Seed),
		cfg:      cfg,
		dir:      cfg.Dir,
		addrs:    make(map[types.NodeID]string),
		replicas: make(map[types.NodeID]*replicaProc),
		spans:    obs.NewCollector(0),
	}
	c.tracer = obs.Tracer(c.spans)
	if cfg.Tracer != nil {
		c.tracer = obs.Multi{c.spans, cfg.Tracer}
	}
	if c.dir == "" {
		dir, err := os.MkdirTemp("", "nemesis-")
		if err != nil {
			return nil, fmt.Errorf("nemesis: temp dir: %w", err)
		}
		c.dir = dir
		c.ownsDir = true
	}

	if cfg.Byzantine > 0 {
		if cfg.Groups > 1 {
			c.Close()
			return nil, fmt.Errorf("nemesis: Byzantine mode requires Groups == 1, got %d", cfg.Groups)
		}
		// One liar per replica, installed as a chaos interceptor keyed by
		// node id: it intercepts every generation of the replica's process,
		// so crash/restart cycles and lying windows compose freely. All
		// liars start honest; the schedule's failure.Byz actions flip them.
		c.liars = make(map[types.NodeID]*core.Liar, cfg.N)
	}

	for i := 0; i < cfg.Groups*cfg.N; i++ {
		id := types.NodeID(i)
		c.addrs[id] = "127.0.0.1:0" // pinned to the real port on first start
		if c.liars != nil {
			l := core.NewLiar(id, cfg.Seed^int64(1000+i))
			c.liars[id] = l
			c.SetInterceptor(id, l.Intercept)
		}
		if err := c.startReplica(id); err != nil {
			c.Close()
			return nil, err
		}
	}

	// Per-group peer sets: a group's clients know that group's replicas only.
	groupIDs := make([][]types.NodeID, cfg.Groups)
	groupPeers := make([]map[types.NodeID]string, cfg.Groups)
	c.mu.Lock()
	for g := 0; g < cfg.Groups; g++ {
		groupPeers[g] = make(map[types.NodeID]string, cfg.N)
		for i := 0; i < cfg.N; i++ {
			id := types.NodeID(g*cfg.N + i)
			groupIDs[g] = append(groupIDs[g], id)
			groupPeers[g][id] = c.addrs[id]
		}
	}
	c.mu.Unlock()

	for i := 0; i < cfg.Writers+cfg.Readers; i++ {
		groupClis := make([]*core.Client, cfg.Groups)
		for g := 0; g < cfg.Groups; g++ {
			id := clientBase + types.NodeID(i*cfg.Groups+g)
			tc := c.tcpConfig(id)
			tc.Peers = groupPeers[g]
			ep, err := tcpnet.Listen(tc)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("nemesis: client %v endpoint: %w", id, err)
			}
			ids := append([]types.NodeID(nil), groupIDs[g]...)
			copts := []core.ClientOption{
				core.WithRetransmit(50*time.Millisecond, 500*time.Millisecond),
				core.WithTracer(c.nodeTracer(id)),
			}
			if cfg.Byzantine > 0 {
				copts = append(copts, core.WithByzantine(cfg.Byzantine))
			}
			cli, err := core.NewClient(id, c.Wrap(ep), ids, copts...)
			if err != nil {
				_ = ep.Close()
				c.Close()
				return nil, fmt.Errorf("nemesis: client %v: %w", id, err)
			}
			if err := requireDispatch(ep, "client", id); err != nil {
				cli.Close()
				c.Close()
				return nil, err
			}
			c.clients = append(c.clients, cli)
			c.clientEPs = append(c.clientEPs, ep)
			groupClis[g] = cli
		}
		if cfg.Groups > 1 {
			st, err := shard.New(groupClis)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("nemesis: store %d: %w", i, err)
			}
			c.stores = append(c.stores, st)
		}
	}
	return c, nil
}

// requireDispatch fails unless the protocol layer started over ep (through
// its chaos wrapper) took the production receive path, handling messages on
// the connection readers. Every nemesis verdict is about that path; if the
// wrapper stopped forwarding transport.Dispatcher the suites would quietly
// test the Recv-loop fallback instead.
func requireDispatch(ep *tcpnet.Endpoint, role string, id types.NodeID) error {
	if !ep.Dispatching() {
		return fmt.Errorf("nemesis: %s %v is not in dispatch mode", role, id)
	}
	return nil
}

// startReplica boots (or reboots) replica id on its pinned address from
// its persistence log. Callers must not hold c.mu.
func (c *Cluster) startReplica(id types.NodeID) error {
	c.mu.Lock()
	addr := c.addrs[id]
	c.mu.Unlock()

	tc := c.tcpConfig(id)
	tc.ListenAddr = addr
	var ep *tcpnet.Endpoint
	var err error
	// A restart races the dying listener for the port: retry briefly.
	for attempt := 0; attempt < 50; attempt++ {
		ep, err = tcpnet.Listen(tc)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("nemesis: replica %v listen %s: %w", id, addr, err)
	}

	wal := filepath.Join(c.dir, fmt.Sprintf("replica-%d.wal", id))
	rep, err := core.NewPersistentReplica(id, c.Wrap(ep), wal,
		core.WithReplicaTracer(c.nodeTracer(id)), core.WithFsyncDelay(c.cfg.FsyncDelay))
	if err != nil {
		_ = ep.Close()
		return fmt.Errorf("nemesis: replica %v: %w", id, err)
	}
	rep.Start()
	if err := requireDispatch(ep, "replica", id); err != nil {
		rep.Stop()
		return err
	}

	c.mu.Lock()
	c.addrs[id] = ep.Addr() // pin the concrete port for future restarts
	c.replicas[id] = &replicaProc{rep: rep, ep: ep}
	c.mu.Unlock()
	return nil
}

// Crash stops replica id's process: the protocol loop exits and the
// listener closes, so peers see connection resets and refused dials — not
// a silent message void. Crashing an unknown or already-crashed id is a
// no-op. Clients are never crashed.
func (c *Cluster) Crash(id types.NodeID) {
	c.mu.Lock()
	proc, ok := c.replicas[id]
	delete(c.replicas, id)
	c.mu.Unlock()
	if !ok {
		return
	}
	proc.rep.Stop()
	c.mu.Lock()
	c.stats = c.stats.Merge(proc.ep.Stats())
	c.mu.Unlock()
}

// Recover restarts a crashed replica on its original address, replaying
// its persistence log — the crash-recovery path under test. No-op if the
// replica is running.
func (c *Cluster) Recover(id types.NodeID) {
	if !c.Crashed(id) {
		return
	}
	// Best effort: a failed restart leaves the replica crashed, which the
	// protocol tolerates anyway.
	_ = c.startReplica(id)
}

// Crashed reports whether replica id is currently stopped.
func (c *Cluster) Crashed(id types.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, running := c.replicas[id]
	_, known := c.addrs[id]
	return known && !running
}

// RecoverAll restarts every crashed replica.
func (c *Cluster) RecoverAll() {
	for id := 0; id < c.cfg.Groups*c.cfg.N; id++ {
		c.Recover(types.NodeID(id))
	}
}

// SetByzantine switches replica node's liar to mode (a core.ByzMode
// value; 0 restores honesty). A no-op outside Byzantine mode or for
// unknown nodes, so schedules degrade gracefully.
func (c *Cluster) SetByzantine(node types.NodeID, mode int) {
	if l := c.liars[node]; l != nil {
		l.SetMode(core.ByzMode(mode))
	}
}

// ClearByzantine restores every liar to honesty (the Byzantine analogue
// of Heal/ClearFaults, run before post-schedule verdicts).
func (c *Cluster) ClearByzantine() {
	for _, l := range c.liars {
		l.SetMode(0)
	}
}

// LiarStats sums the liars' tallies: replies rewritten and replies
// suppressed. Zero outside Byzantine mode.
func (c *Cluster) LiarStats() (lies, muted int64) {
	for _, l := range c.liars {
		a, b := l.Stats()
		lies += a
		muted += b
	}
	return lies, muted
}

var (
	_ failure.Fabric        = (*Cluster)(nil)
	_ failure.ByzController = (*Cluster)(nil)
)

// Spans returns the spans collected so far across every layer of the
// cluster, plus how many were dropped at the collector's capacity.
func (c *Cluster) Spans() ([]obs.Span, int64) {
	return c.spans.Spans(), c.spans.Dropped()
}

// Clients returns the cluster's protocol clients: writers first, then
// readers; in a sharded cluster each logical client contributes Groups
// consecutive entries (group 0 first).
func (c *Cluster) Clients() []*core.Client { return c.clients }

// Stores returns the sharded stores, one per logical client (writers
// first), or nil for a single-group cluster.
func (c *Cluster) Stores() []*shard.Store { return c.stores }

// ClientIDs returns the client node ids in Clients order.
func (c *Cluster) ClientIDs() []types.NodeID {
	ids := make([]types.NodeID, len(c.clients))
	for i, cli := range c.clients {
		ids[i] = cli.ID()
	}
	return ids
}

// LagReport computes per-replica divergence from the quorum-confirmed tag
// watermarks, per group, over the currently live replica processes (a
// crashed replica has no process to report; restart it first). limit
// bounds each replica's watermark report, topRegs the per-register detail.
func (c *Cluster) LagReport(limit, topRegs int) health.LagReport {
	c.mu.Lock()
	groups := make([][]health.ReplicaTags, c.cfg.Groups)
	for id, proc := range c.replicas {
		g := c.groupOf(id)
		groups[g] = append(groups[g], proc.rep.TagWatermarks(limit))
	}
	c.mu.Unlock()
	return health.GroupLag(groups, c.cfg.N/2+1, topRegs)
}

// ReplicaMetrics sums the protocol-level replica counters across the live
// replica processes and merges their group-commit batch-size histograms.
// Unlike TransportStats, crashed generations take their counters with them:
// a restarted replica reports the new process's tallies only, which is
// exactly what a crash-recovery test wants to observe.
func (c *Cluster) ReplicaMetrics() (core.ReplicaMetrics, obs.HistSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total core.ReplicaMetrics
	var sizes obs.HistSnapshot
	for _, proc := range c.replicas {
		total = total.Merge(proc.rep.ReplicaMetrics())
		sizes = sizes.Merge(proc.rep.BatchSizes())
	}
	return total, sizes
}

// TransportStats sums the tcpnet counters across every endpoint, past and
// present — crashed replica generations included.
func (c *Cluster) TransportStats() tcpnet.Stats {
	c.mu.Lock()
	total := c.stats
	for _, proc := range c.replicas {
		total = total.Merge(proc.ep.Stats())
	}
	c.mu.Unlock()
	for _, ep := range c.clientEPs {
		total = total.Merge(ep.Stats())
	}
	return total
}

// Close stops clients and replicas and removes the temp WAL directory if
// the cluster created it.
func (c *Cluster) Close() {
	for _, cli := range c.clients {
		cli.Close()
	}
	c.mu.Lock()
	procs := make([]*replicaProc, 0, len(c.replicas))
	for id, proc := range c.replicas {
		procs = append(procs, proc)
		delete(c.replicas, id)
	}
	c.mu.Unlock()
	for _, proc := range procs {
		proc.rep.Stop()
	}
	if c.ownsDir {
		_ = os.RemoveAll(c.dir)
	}
}

// Genres names one of GenerateSchedule's genre sets.
type Genres int

const (
	// ClassicGenres rotate a loss/duplication/corruption storm, a latency
	// spike with reordering, a replica crash with restart, a
	// connection-reset volley, and a replica isolated from every client (a
	// one-node partition).
	ClassicGenres Genres = iota
	// ByzantineGenres turn cfg.Byzantine replicas into liars in every
	// window and layer a classic fault underneath: loud lies alone
	// (fabricated and equivocated max-tags), quiet lies (stale state or
	// silence) under a loss storm, a crash of an HONEST replica while the
	// liars fabricate (the masking quorum must absorb both adversaries at
	// once), and equivocation under a latency/reorder spike (concurrent
	// readers see per-destination lies out of order). Every window
	// restores honesty at its end. With cfg.Byzantine == 0 these are the
	// classic genres.
	ByzantineGenres
	// FastReadGenres race writers against fast-path reads (DESIGN.md §10):
	// a read must take the slow path whenever the replicas it hears
	// diverge — a write's update has reached some of them but the holders
	// of the newest pair cover no write quorum. A writer slowdown (every
	// writer's link to one replica blocked, so stored tags diverge while
	// readers race at full speed) is guaranteed; the other genres are a
	// replica crash with restart (it rejoins behind, on its WAL), a loss
	// storm (updates and acks dropped, so holders stay partial), and a
	// latency spike with reordering (an update reaches some replicas long
	// after others). The clients passed to GenerateSchedule are the
	// writers.
	FastReadGenres
	// ShardedGenres fault TWO distinct replica groups in every window —
	// crashing or isolating one replica in each — so the store must keep
	// the untouched groups' registers live while two groups churn. Each
	// victim is a minority of its group, so every register stays
	// reachable, and the per-register verdicts check that routing under
	// churn never mixes registers across groups. Every third window (in
	// expectation) adds a global loss/duplication storm. With
	// cfg.Groups < 2 these are the classic genres.
	ShardedGenres
)

// GenerateSchedule derives a deterministic fault schedule from cfg.Seed:
// cfg.Windows sequential episodes of cfg.Window each, every one drawn from
// the genre set, its fault applied an eighth of a window in and undone an
// eighth before the window ends. Every set guarantees at least one replica
// crash with restart (the harness must exercise crash-recovery). clients
// are the ids the isolation genres cut off from a replica. The result is a
// pure function of its inputs — byte-for-byte as a script — so a failing
// run can be replayed.
func GenerateSchedule(genres Genres, cfg Config, clients []types.NodeID) failure.Schedule {
	cfg = cfg.withDefaults()
	g := &generator{cfg: cfg, clients: clients, rng: rand.New(rand.NewSource(cfg.Seed))}
	window := g.classic
	switch {
	case genres == ByzantineGenres && cfg.Byzantine > 0:
		window = g.byzantine
	case genres == FastReadGenres:
		window = g.fastRead
	case genres == ShardedGenres && cfg.Groups > 1:
		window = g.sharded
	}
	for g.w = 0; g.w < cfg.Windows; g.w++ {
		g.start = time.Duration(g.w)*cfg.Window + cfg.Window/8
		g.end = time.Duration(g.w+1)*cfg.Window - cfg.Window/8
		window()
	}
	return g.sched
}

// generator is GenerateSchedule's state: one RNG for every draw, the
// current window, and the guarantees met so far.
type generator struct {
	cfg     Config
	clients []types.NodeID
	rng     *rand.Rand
	sched   failure.Schedule

	w                     int           // the current window
	start, end            time.Duration // its fault onset and undo
	sawCrash, sawSlowdown bool
}

func (g *generator) add(at time.Duration, a failure.Action) {
	g.sched = append(g.sched, failure.Event{At: at, Action: a})
}

// pick draws one of k genres, or crashGenre in the last window of a
// schedule that has not crashed a replica yet.
func (g *generator) pick(k, crashGenre int) int {
	genre := g.rng.Intn(k)
	if g.w == g.cfg.Windows-1 && !g.sawCrash {
		return crashGenre
	}
	return genre
}

// replica draws one replica of group 0 (the only group of an unsharded
// cluster).
func (g *generator) replica() types.NodeID { return types.NodeID(g.rng.Intn(g.cfg.N)) }

// crash stops replica id for the window.
func (g *generator) crash(id types.NodeID) {
	g.add(g.start, failure.Crash{Node: id})
	g.add(g.end, failure.Recover{Node: id})
	g.sawCrash = true
}

// isolate blocks every client's link to replica id for the window.
func (g *generator) isolate(id types.NodeID) {
	for _, cl := range g.clients {
		g.add(g.start, failure.Block{From: cl, To: id})
	}
	for _, cl := range g.clients {
		g.add(g.end, failure.Unblock{From: cl, To: id})
	}
}

// faults installs f on every link for the window.
func (g *generator) faults(f chaos.Faults) {
	g.add(g.start, failure.LinkFaults{All: true, Faults: f})
	g.add(g.end, failure.LinkFaults{All: true})
}

// storm is a loss storm: drop probability in [drop, drop+dropSpan), dup
// below dup, and, when corrupt > 0, corruption below corrupt.
func (g *generator) storm(drop, dropSpan, dup, corrupt float64) {
	f := chaos.Faults{Drop: drop + dropSpan*g.rng.Float64(), Dup: dup * g.rng.Float64()}
	if corrupt > 0 {
		f.Corrupt = corrupt * g.rng.Float64()
	}
	g.faults(f)
}

// latency is a latency spike: every message delayed between lo (1 to
// loSpan ms) and lo plus hiBase..hiBase+hiSpan-1 ms, reordered below
// reorder.
func (g *generator) latency(loSpan, hiBase, hiSpan int, reorder float64) {
	lo := time.Duration(1+g.rng.Intn(loSpan)) * time.Millisecond
	hi := lo + time.Duration(hiBase+g.rng.Intn(hiSpan))*time.Millisecond
	g.faults(chaos.Faults{DelayMin: lo, DelayMax: hi, Reorder: reorder * g.rng.Float64()})
}

func (g *generator) classic() {
	switch g.pick(5, 2) {
	case 0: // message storm: loss plus some duplication and corruption
		g.storm(0.1, 0.2, 0.1, 0.05)
	case 1:
		g.latency(4, 5, 20, 0.2)
	case 2:
		g.crash(g.replica())
	case 3: // connection-reset volley
		k := 2 + g.rng.Intn(3)
		for j := 0; j < k; j++ {
			g.add(g.start+time.Duration(j)*(g.end-g.start)/time.Duration(k), failure.Reset{All: true})
		}
	case 4:
		g.isolate(g.replica())
	}
}

func (g *generator) byzantine() {
	f := g.cfg.Byzantine
	perm := g.rng.Perm(g.cfg.N) // perm[:f] lie this window, perm[f:] stay honest
	liars := perm[:f]
	// lie turns every liar to mode a, or to a or b by a coin flip each.
	lie := func(a, b core.ByzMode) {
		for _, id := range liars {
			mode := a
			if b != 0 && g.rng.Intn(2) == 1 {
				mode = b
			}
			g.add(g.start, failure.Byz{Node: types.NodeID(id), Mode: int(mode)})
		}
	}
	switch g.pick(4, 2) {
	case 0:
		lie(core.ByzFabricate, core.ByzEquivocate)
	case 1:
		lie(core.ByzStale, core.ByzSilent)
		g.storm(0.05, 0.1, 0.1, 0)
	case 2: // with n = 4f+1 the masking quorum of 3f+1 is exactly the
		// replicas still answering, so reads must survive both adversaries
		lie(core.ByzFabricate, 0)
		g.crash(types.NodeID(perm[f]))
	case 3:
		lie(core.ByzEquivocate, 0)
		g.latency(3, 4, 12, 0.2)
	}
	for _, id := range liars {
		g.add(g.end, failure.Byz{Node: types.NodeID(id), Mode: 0})
	}
}

func (g *generator) fastRead() {
	genre := g.pick(4, 1)
	if g.w == g.cfg.Windows-2 && !g.sawSlowdown {
		genre = 0
	}
	switch genre {
	case 0:
		g.isolate(g.replica())
		g.sawSlowdown = true
	case 1:
		g.crash(g.replica())
	case 2:
		g.storm(0.1, 0.2, 0.1, 0)
	case 3:
		g.latency(3, 4, 15, 0.3)
	}
}

func (g *generator) sharded() {
	groups, n := g.cfg.Groups, g.cfg.N
	gA := g.rng.Intn(groups)
	gB := (gA + 1 + g.rng.Intn(groups-1)) % groups
	for _, grp := range []int{gA, gB} {
		id := types.NodeID(grp*n + g.rng.Intn(n))
		if g.pick(2, 0) == 0 {
			g.crash(id)
		} else {
			g.isolate(id)
		}
	}
	if g.rng.Intn(3) == 0 {
		g.storm(0.05, 0.15, 0.05, 0)
	}
}

// Result is the outcome of one nemesis run.
type Result struct {
	// Outcome is the overall linearizability verdict; Results holds the
	// per-register detail.
	Outcome lincheck.Outcome
	Results map[string]lincheck.Result
	// Shards is the replica-group count of the run; RegisterShard maps each
	// workload register to its owning group (nil for single-group runs), so
	// a per-register verdict can be read as a per-shard verdict.
	Shards        int
	RegisterShard map[string]int
	// History is the recorded operation history (sorted by invocation).
	History []history.Op
	// Ops counts completed operations, Failed the timed-out ones
	// (recorded as pending — the checker decides if their effects show).
	Ops, Failed int
	// Schedule is the fault schedule that ran, in script syntax.
	Schedule string
	// Client aggregates the clients' protocol counters (retransmits etc.).
	Client core.MetricsSnapshot
	// Transport aggregates tcpnet counters across all endpoints; Chaos is
	// the fault-injection tally.
	Transport tcpnet.Stats
	Chaos     chaos.Stats
	// Replica sums the live replicas' protocol counters at the end of the
	// run (a restarted process counts from its restart, so crash tests see
	// the recovered generation); BatchSizes is their merged group-commit
	// batch-size distribution.
	Replica    core.ReplicaMetrics
	BatchSizes obs.HistSnapshot
	// Byzantine echoes Config.Byzantine; Lies counts replica replies the
	// chaos-layer liars rewrote during the run and Muted the replies they
	// suppressed — the injected-adversary side of the ledger whose
	// client-side counterpart is Health.Byzantine.Suspects. All zero outside
	// Byzantine mode.
	Byzantine   int
	Lies, Muted int64
	// Spans is every span collected during the run — client operations and
	// phases, transport hops, replica handlers and fsyncs — and
	// SpansDropped how many the collector had to reject. Stitch summarizes
	// how many remote spans trace back to their originating operation.
	Spans        []obs.Span
	SpansDropped int64
	Stitch       obs.StitchStats
	// Health is the run's live-introspection verdict: SLO burn state,
	// alerts raised during fault windows, hot keys, and post-run replica
	// lag (see HealthReport).
	Health HealthReport
}

// Run executes one full nemesis pass: start the cluster, run the workload
// and the fault schedule concurrently, then check the recorded history.
// The error covers harness failures only — a linearizability violation is
// reported in Result.Outcome, not as an error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	cl, err := NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	sched := cfg.Schedule
	if sched == nil {
		genres := ClassicGenres
		switch {
		case cfg.Byzantine > 0:
			genres = ByzantineGenres
		case cfg.Groups > 1:
			genres = ShardedGenres
		}
		sched = GenerateSchedule(genres, cfg, cl.ClientIDs())
	}

	rec := history.NewRecorder()
	var failed int
	var failedMu sync.Mutex

	// The monitor polls the clients' cumulative counters into the SLO
	// tracker while the workload runs, the way a deployment polls /status.
	// Its baseline sample anchors the run clock alerts are located on.
	start := time.Now()
	mon := startMonitor(cl.clients, cfg.healthSLO(), cfg.Recorder)

	sctx, stopSched := context.WithCancel(ctx)
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		_ = sched.Run(sctx, cl) // cancellation is the normal exit
	}()

	// pace sleeps a jittered think time (50%..150% of OpInterval) so the
	// workload stays spread across the whole fault schedule.
	pace := func(rng *rand.Rand) {
		if cfg.OpInterval <= 0 {
			return
		}
		time.Sleep(cfg.OpInterval/2 + time.Duration(rng.Int63n(int64(cfg.OpInterval))))
	}

	// The workload's register names. In a sharded run the names are probed
	// so register r lands on group r%Groups: every group owns registers and
	// the per-register verdicts genuinely cover every shard (plain "r%d"
	// names can all hash into a subset of the groups).
	regNames := make([]string, cfg.Registers)
	for r := range regNames {
		regNames[r] = fmt.Sprintf("r%d", r)
	}
	if cfg.Groups > 1 {
		for r := range regNames {
			want := r % cfg.Groups
			for k := 0; cl.stores[0].Shard(regNames[r]) != want; k++ {
				regNames[r] = fmt.Sprintf("r%d-%d", r, k)
			}
		}
	}

	// A logical worker is a core.Client, or a shard.Store routing over one
	// client per group — the same RW surface either way.
	type worker struct {
		id int // history process id
		rw types.RW
	}
	workers := make([]worker, 0, cfg.Writers+cfg.Readers)
	if cfg.Groups > 1 {
		for i, st := range cl.Stores() {
			workers = append(workers, worker{id: int(clientBase) + i*cfg.Groups, rw: st})
		}
	} else {
		for _, cli := range cl.Clients() {
			workers = append(workers, worker{id: int(cli.ID()), rw: cli})
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Writers; i++ {
		wg.Add(1)
		go func(i int, wk worker) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*997 + int64(i)))
			reg := regNames[i%cfg.Registers]
			for op := 0; op < cfg.OpsPerClient; op++ {
				val := []byte(fmt.Sprintf("w%d-%d", i, op))
				p := rec.BeginWriteReg(wk.id, reg, val)
				octx, cancel := context.WithTimeout(ctx, cfg.OpTimeout)
				err := wk.rw.Write(octx, reg, val)
				cancel()
				if err != nil {
					p.Crash() // pending: the write may still take effect
					failedMu.Lock()
					failed++
					failedMu.Unlock()
				} else {
					p.EndWrite()
				}
				pace(rng)
			}
		}(i, workers[i])
	}
	for i := 0; i < cfg.Readers; i++ {
		wg.Add(1)
		go func(i int, wk worker) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*991 + int64(i)))
			for op := 0; op < cfg.OpsPerClient; op++ {
				reg := regNames[(i+op)%cfg.Registers]
				p := rec.BeginReadReg(wk.id, reg)
				octx, cancel := context.WithTimeout(ctx, cfg.OpTimeout)
				val, err := wk.rw.Read(octx, reg)
				cancel()
				if err != nil {
					p.Crash() // pending read: imposes no obligation
					failedMu.Lock()
					failed++
					failedMu.Unlock()
				} else {
					p.EndRead(val)
				}
				pace(rng)
			}
		}(i, workers[cfg.Writers+i])
	}
	wg.Wait()
	stopSched()
	<-schedDone
	final := mon.halt()

	// Restore the cluster before teardown so Close sees live processes.
	cl.RecoverAll()
	cl.ClearFaults()
	cl.Heal()
	cl.ClearByzantine()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("nemesis: run cancelled: %w", err)
	}

	// The workload is done and the schedule unwound: in-flight replies have
	// had their timeouts, so the span picture is complete. Snapshot before
	// the checker runs, not after, to keep teardown-time spans out.
	spans, spansDropped := cl.Spans()
	repStats, batchSizes := cl.ReplicaMetrics()

	lies, muted := cl.LiarStats()
	ops := rec.Ops()
	results := lincheck.CheckRegisters(ops, lincheck.Config{Timeout: cfg.CheckTimeout})
	res := &Result{
		Outcome:    lincheck.AllLinearizable(results),
		Results:    results,
		Shards:     cfg.Groups,
		History:    ops,
		Ops:        len(ops) - failed,
		Failed:     failed,
		Schedule:   sched.String(),
		Transport:  cl.TransportStats(),
		Chaos:      cl.Net.Stats(),
		Replica:    repStats,
		BatchSizes: batchSizes,
		Byzantine:  cfg.Byzantine,
		Lies:       lies,
		Muted:      muted,
		Client:     core.Fleet(cl.clients).Metrics(),

		Spans:        spans,
		SpansDropped: spansDropped,
		Stitch:       obs.Stitch(spans),
		Health: HealthReport{
			Status:      final,
			Start:       start,
			ByzTimeline: mon.byz,
			Captures:    drainCaptures(cfg.Recorder),
		},
	}
	// RecoverAll has run: every replica reports, and ones that missed
	// writes while crashed show up behind (no anti-entropy).
	lag := cl.LagReport(128, 5)
	res.Health.Lag = &lag
	if cfg.Groups > 1 {
		res.RegisterShard = make(map[string]int, cfg.Registers)
		for _, reg := range regNames {
			res.RegisterShard[reg] = cl.stores[0].Shard(reg)
		}
	}
	return res, nil
}
