package abd

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/types"
)

// Cluster is a local, in-process deployment of the emulation: one or more
// replica groups on a simulated asynchronous network, plus as many clients
// and sharded stores as the caller asks for. It is the workbench the
// examples, tests, and benchmarks build on; for a real deployment over TCP
// see cmd/abd-node and cmd/abd-cli.
//
// A single-group cluster (NewCluster) is the paper's setting: every
// register lives on the one group. A sharded cluster (NewCluster with
// WithShards) partitions the register namespace across independent groups
// behind a Store.
type Cluster struct {
	net      *netsim.Net
	replicas []*core.Replica // all groups, flattened in id order
	ids      []types.NodeID  // replica ids, same order
	groups   int
	perGroup int
	clients  []*core.Client
	stores   []*Store
	nextCli  types.NodeID

	cfg clusterConfig

	// Lazy SLO tracking for Health(): created on first use.
	healthMu sync.Mutex
	tracker  *health.Tracker
}

type clusterConfig struct {
	seed          int64
	minDelay      time.Duration
	maxDelay      time.Duration
	dropProb      float64
	defaultClient []core.ClientOption
	shards        int // WithShards; 1 if unset
}

// Option configures a Cluster.
type Option func(*clusterConfig)

// WithSeed fixes the simulation's random seed (delays, drops).
func WithSeed(seed int64) Option {
	return func(c *clusterConfig) { c.seed = seed }
}

// WithDelays sets the uniform one-way message delay range.
func WithDelays(min, max time.Duration) Option {
	return func(c *clusterConfig) { c.minDelay, c.maxDelay = min, max }
}

// WithDropProbability makes each message be lost independently with
// probability p. The paper's model assumes reliable links (p = 0); this
// knob exists for stress testing.
func WithDropProbability(p float64) Option {
	return func(c *clusterConfig) { c.dropProb = p }
}

// WithClientDefaults appends protocol options applied to every client the
// cluster creates (e.g. abd.WithSingleWriter(), core.WithQuorum(qs) sized
// for one group, or core.WithBoundedLabels(l)), including a Store's
// per-group clients. NewCluster fails on a combination NewClient refuses.
func WithClientDefaults(opts ...core.ClientOption) Option {
	return func(c *clusterConfig) { c.defaultClient = append(c.defaultClient, opts...) }
}

// WithShards splits NewCluster's n replicas into g equal replica groups
// (n must be divisible by g), sharding the register namespace across them.
// NewCluster(n) is WithShards(1): the paper's single-group setting.
func WithShards(g int) Option {
	return func(c *clusterConfig) { c.shards = g }
}

// NewCluster starts n replicas (node ids 0..n-1) on a fresh simulated
// network. Close must be called to release them. The replicas form one
// group unless WithShards(g) partitions them into g groups of n/g — group
// k owns node ids k*n/g .. (k+1)*n/g-1 — across which every Store the
// cluster hands out partitions the registers; each group is an unchanged
// ABD instance tolerating a minority of crashes. It fails if n does not
// split into equal groups or if the WithClientDefaults options would make
// every client fail to build.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	cfg := clusterConfig{seed: 1, shards: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	groups := cfg.shards
	if groups < 1 || n < groups || n%groups != 0 {
		return nil, fmt.Errorf("abd: cannot split %d replicas into %d equal groups", n, groups)
	}
	perGroup := n / groups
	if perGroup > quorum.MaxNodes {
		return nil, fmt.Errorf("abd: group size %d exceeds max %d", perGroup, quorum.MaxNodes)
	}
	if err := checkClientDefaults(perGroup, cfg.defaultClient); err != nil {
		return nil, err
	}
	cl := &Cluster{
		net: netsim.New(netsim.Config{
			Seed:     cfg.seed,
			MinDelay: cfg.minDelay,
			MaxDelay: cfg.maxDelay,
		}),
		groups:   groups,
		perGroup: perGroup,
		nextCli:  types.NodeID(10000),
		cfg:      cfg,
	}
	cl.net.SetDefaultFaults(chaos.Faults{Drop: cfg.dropProb})
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		r := core.NewReplica(id, cl.net.Node(id))
		r.Start()
		cl.replicas = append(cl.replicas, r)
		cl.ids = append(cl.ids, id)
	}
	return cl, nil
}

// checkClientDefaults builds one client with the cluster's default options
// on a network of its own, so that an option combination NewClient refuses
// fails NewCluster instead of panicking in the first Client or Store. The
// cluster's own network sees nothing of it: client ids and the message
// schedule are the same as without the check.
func checkClientDefaults(groupSize int, opts []core.ClientOption) error {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := make([]types.NodeID, groupSize)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	probe := types.NodeID(groupSize)
	cli, err := core.NewClient(probe, net.Node(probe), ids, opts...)
	if err != nil {
		return fmt.Errorf("abd: client defaults: %w", err)
	}
	cli.Close()
	return nil
}

// Size returns the total number of replicas across all groups.
func (c *Cluster) Size() int { return len(c.replicas) }

// Shards returns the number of replica groups.
func (c *Cluster) Shards() int { return c.groups }

// GroupSize returns the number of replicas per group.
func (c *Cluster) GroupSize() int { return c.perGroup }

// ReplicaIDs returns every replica node id, flattened in group order.
func (c *Cluster) ReplicaIDs() []NodeID {
	return append([]NodeID(nil), c.ids...)
}

// GroupReplicaIDs returns group g's replica ids in quorum-index order.
func (c *Cluster) GroupReplicaIDs(g int) []NodeID {
	return append([]NodeID(nil), c.ids[g*c.perGroup:(g+1)*c.perGroup]...)
}

// newGroupClient creates a client attached to one group. Options are
// applied after the cluster's defaults, so they win on conflicts.
func (c *Cluster) newGroupClient(g int, opts []core.ClientOption) *Client {
	id := c.nextCli
	c.nextCli++
	all := make([]core.ClientOption, 0, len(c.cfg.defaultClient)+len(opts))
	all = append(all, c.cfg.defaultClient...)
	all = append(all, opts...)
	cli, err := core.NewClient(id, c.net.Node(id), c.GroupReplicaIDs(g), all...)
	if err != nil {
		// NewCluster checked the defaults, so only opts can fail here: a
		// misconfigured option combination, surfaced early.
		panic(fmt.Sprintf("abd: cluster client: %v", err))
	}
	return cli
}

// Client creates a new client attached to replica group 0. Options are
// applied after the cluster's defaults, so they win on conflicts. On a
// sharded cluster a plain Client sees only group 0's registers — use Store
// for the routed view spanning every group.
func (c *Cluster) Client(opts ...core.ClientOption) *Client {
	cli := c.newGroupClient(0, opts)
	c.clients = append(c.clients, cli)
	return cli
}

// Store creates a sharded store over every replica group: one fresh client
// per group (cluster defaults plus opts), routed by the consistent-hash
// ring every Store of the cluster shares (see internal/shard).
// The cluster owns the store; Close closes it. On a single-group cluster
// the store is a plain client behind the router — same protocol, same
// guarantees — so code written against Store runs unchanged at any scale.
func (c *Cluster) Store(opts ...core.ClientOption) *Store {
	clients := make([]*core.Client, c.groups)
	for g := range clients {
		clients[g] = c.newGroupClient(g, opts)
	}
	st, err := shard.New(clients)
	if err != nil {
		// Same contract as Client: the cluster controls every input.
		panic(fmt.Sprintf("abd: cluster store: %v", err))
	}
	c.stores = append(c.stores, st)
	return st
}

// Crash fail-stops replica i (by flattened index; group g's replicas are
// indexes g*GroupSize()..). Matching the paper's model, there is no
// recovery.
func (c *Cluster) Crash(i int) {
	c.net.Crash(c.ids[i])
}

// Partition splits the network into groups of node ids (replicas and
// clients alike). Nodes in no group are isolated.
func (c *Cluster) Partition(groups ...[]NodeID) {
	c.net.Partition(groups...)
}

// Heal removes any partition.
func (c *Cluster) Heal() { c.net.Heal() }

// Net exposes the underlying simulated network for fault injection
// (internal/failure schedules target it directly).
func (c *Cluster) Net() *netsim.Net { return c.net }

// Replica returns replica i (flattened index) for state inspection in
// tests and tools.
func (c *Cluster) Replica(i int) *core.Replica { return c.replicas[i] }

// NetStats returns the simulated network's counters.
func (c *Cluster) NetStats() netsim.Stats { return c.net.Stats() }

// fleet is every client the cluster created: its plain clients and every
// store's group clients.
func (c *Cluster) fleet() core.Fleet {
	f := append(core.Fleet(nil), c.clients...)
	for _, st := range c.stores {
		f = append(f, st.Clients()...)
	}
	return f
}

// Latency merges every cluster client's and store's latency histograms
// into one fleet-wide snapshot (see core.Fleet.Latency).
func (c *Cluster) Latency() core.LatencySnapshot { return c.fleet().Latency() }

// Metrics merges every cluster client's and store's operation counters.
func (c *Cluster) Metrics() core.MetricsSnapshot { return c.fleet().Metrics() }

// HotKeys merges every cluster client's and store's hot-key sketch into
// one fleet-wide top-k list (k <= 0 keeps everything).
func (c *Cluster) HotKeys(k int) []health.HotKey { return c.fleet().HotKeys(k) }

// SetSLO replaces the objective Health tracks (and resets its burn
// history). Without a call, Health tracks health.DefaultSLO.
func (c *Cluster) SetSLO(slo health.SLO) {
	c.healthMu.Lock()
	c.tracker = health.NewTracker(slo)
	c.healthMu.Unlock()
}

// healthWatermarkLimit bounds each replica's watermark report in Health:
// plenty for the workbench's keyspaces while keeping the report small.
const healthWatermarkLimit = 128

// Health returns the cluster's live health view: the client fleet's hot
// keys, SLO burn state and Byzantine verdict (core.Fleet.Health, over
// every plain client and store), plus per-replica lag against each group's
// quorum-confirmed tag watermarks. Each call ingests the current counters
// into the sliding burn windows, so poll it periodically; the first call
// only seeds the baseline. Like Latency and Metrics, Health must not race
// Client/Store creation.
func (c *Cluster) Health() health.Status {
	c.healthMu.Lock()
	if c.tracker == nil {
		c.tracker = health.NewTracker(health.DefaultSLO())
	}
	tr := c.tracker
	c.healthMu.Unlock()

	st, _ := c.fleet().Health(tr, time.Now())
	groups := make([][]health.ReplicaTags, c.groups)
	for i, r := range c.replicas {
		groups[i/c.perGroup] = append(groups[i/c.perGroup], r.TagWatermarks(healthWatermarkLimit))
	}
	lag := health.GroupLag(groups, c.perGroup/2+1, 5)
	st.Lag = &lag
	return st
}

// ResetNetStats zeroes the network counters (between benchmark phases).
func (c *Cluster) ResetNetStats() { c.net.ResetStats() }

// Close stops all clients and stores, drains the network, then stops the
// replicas and shuts the network down. The drain between the two stop
// phases matters: it lets every already-sampled delivery land (or be
// discarded) before any replica endpoint closes, so teardown never races a
// delayed send into a closing mailbox.
func (c *Cluster) Close() {
	for _, cli := range c.clients {
		cli.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
	c.net.Drain()
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}
