package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/types"
)

// simCluster is the experiments' minimal cluster: n replicas on a fresh
// simulated network.
type simCluster struct {
	net      *netsim.Net
	replicas []*core.Replica
	ids      []types.NodeID
	clients  []*core.Client
	nextCli  types.NodeID
}

func newSimCluster(n int, cfg netsim.Config) *simCluster {
	c := &simCluster{net: netsim.New(cfg), nextCli: 10000}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		r := core.NewReplica(id, c.net.Node(id))
		r.Start()
		c.replicas = append(c.replicas, r)
		c.ids = append(c.ids, id)
	}
	return c
}

func (c *simCluster) client(opts ...core.ClientOption) (*core.Client, error) {
	return c.add(func(id types.NodeID, ep transport.Endpoint) (*core.Client, error) {
		return core.NewClient(id, ep, c.ids, opts...)
	})
}

// add builds a client on the next client id's endpoint — with core.NewClient
// or one of package baseline's constructors — and closes it with the
// cluster.
func (c *simCluster) add(build func(types.NodeID, transport.Endpoint) (*core.Client, error)) (*core.Client, error) {
	id := c.nextCli
	c.nextCli++
	cli, err := build(id, c.net.Node(id))
	if err != nil {
		return nil, err
	}
	c.clients = append(c.clients, cli)
	return cli, nil
}

func (c *simCluster) close() {
	for _, cli := range c.clients {
		cli.Close()
	}
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}

// settle lets in-flight acks and stragglers drain before reading counters.
func settle() { time.Sleep(20 * time.Millisecond) }

// T1MessageComplexity counts messages per operation exactly, on an
// instant-delivery network, and compares with the paper's analysis:
// single-writer write = 2n (n updates + n acks, one round trip),
// read = 4n (query round trip + write-back round trip),
// multi-writer write = 4n (query + update round trips),
// fast-path read = 2n in the quiescent case (the repliers already hold the
// pair at a write quorum, so the write-back is skipped). Those rows ask all
// n replicas per query, as the paper does: WithRetransmit(0, 0) is its
// reliable-channel model, under which every phase asks everyone. The default
// client's rows ask one majority, q = n/2+1, per query: 2q+2n for the
// two-phase read and the multi-writer write, 2q for the fast path.
func T1MessageComplexity(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T1",
		Title:   "message complexity per operation",
		Claim:   "SWMR write: 2n msgs (1 round trip); read: 4n (2 RTs); MWMR write: 4n; fast-path read: 2n; one-quorum queries: 2q+2n, 2q",
		Headers: []string{"n", "operation", "msgs/op", "expected", "ok"},
	}
	ops := o.scale(200, 30)

	for _, n := range []int{3, 5, 7, 9} {
		type variant struct {
			name     string
			expected int
			opts     []core.ClientOption
			run      func(ctx context.Context, cli *core.Client) error
			prime    bool // run one untimed op first
		}
		write := func(ctx context.Context, cli *core.Client) error {
			return cli.Write(ctx, "x", []byte("v"))
		}
		read := func(ctx context.Context, cli *core.Client) error {
			_, err := cli.Read(ctx, "x")
			return err
		}
		all := core.WithRetransmit(0, 0) // the paper's reliable channels: every phase asks all n
		q := n/2 + 1
		variants := []variant{
			{"SWMR write", 2 * n, []core.ClientOption{core.WithSingleWriter()}, write, false},
			{"read", 4 * n, []core.ClientOption{core.WithReadMode(core.ReadTwoPhase), all}, read, true},
			{"MWMR write", 4 * n, []core.ClientOption{all}, write, false},
			{"read (fast path)", 2 * n, []core.ClientOption{all}, read, true},
			{"read, one quorum", 2*q + 2*n, []core.ClientOption{core.WithReadMode(core.ReadTwoPhase)}, read, true},
			{"MWMR write, one quorum", 2*q + 2*n, nil, write, false},
			{"read (fast path), one quorum", 2 * q, nil, read, true},
		}
		for _, v := range variants {
			c := newSimCluster(n, netsim.Config{Seed: o.seed()})
			cli, err := c.client(v.opts...)
			if err != nil {
				c.close()
				return nil, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if v.prime {
				// Reads need a stable value everywhere first.
				w, err := c.client(core.WithSingleWriter())
				if err != nil {
					cancel()
					c.close()
					return nil, err
				}
				if err := w.Write(ctx, "x", []byte("v")); err != nil {
					cancel()
					c.close()
					return nil, err
				}
				settle()
			}
			c.net.ResetStats()
			for i := 0; i < ops; i++ {
				if err := v.run(ctx, cli); err != nil {
					cancel()
					c.close()
					return nil, fmt.Errorf("T1 n=%d %s: %w", n, v.name, err)
				}
			}
			settle()
			st := c.net.Stats()
			cancel()
			c.close()

			perOp := float64(st.Sent) / float64(ops)
			ok := "yes"
			if perOp != float64(v.expected) {
				ok = "no"
			}
			tbl.AddRow(fmt.Sprintf("%d", n), v.name, fmt.Sprintf("%.1f", perOp),
				fmt.Sprintf("%d", v.expected), ok)
		}
	}
	tbl.Notes = append(tbl.Notes,
		"counts include replies/acks; delays are zero so every phase touches each replica it asks exactly once: all n for updates and for the paper's queries, one majority q for the default client's queries",
		"the plain read disables the fast path (ReadTwoPhase) to expose the paper's two-phase cost; the repository benchmark measures the fast path under load (client.fast_hit_frac)")
	return tbl, nil
}

// T2Rounds measures operation latency on a fixed-delay network and infers
// round trips, checking the paper's round complexity: writes 1 round trip
// (single-writer), reads 2, multi-writer writes 2; the fast path brings
// quiescent reads back to 1.
func T2Rounds(o Options) (*Table, error) {
	const oneWay = 500 * time.Microsecond
	tbl := &Table{
		ID:      "T2",
		Title:   "round (latency) complexity",
		Claim:   "SWMR write: 1 round trip; read: 2; MWMR write: 2; fast-path read: 1",
		Headers: []string{"operation", "mean", "p99", "RTTs (vs SWMR write)", "expected RTTs"},
		Notes: []string{
			fmt.Sprintf("one-way delay fixed at %v; RTTs normalized to the measured SWMR write (1 RT by construction), which also absorbs the simulator's timer overhead", oneWay),
			"the plain read disables the fast path (ReadTwoPhase) to expose the paper's round complexity; the repository benchmark measures the fast path under load (client.rounds_per_read)",
		},
	}
	ops := o.scale(100, 20)
	n := 5

	type variant struct {
		name     string
		expected float64
		opts     []core.ClientOption
		isRead   bool
	}
	variants := []variant{
		{"SWMR write", 1, []core.ClientOption{core.WithSingleWriter()}, false},
		{"read", 2, []core.ClientOption{core.WithReadMode(core.ReadTwoPhase)}, true},
		{"MWMR write", 2, nil, false},
		{"read (fast path)", 1, nil, true},
	}
	var baseline time.Duration // measured SWMR write = 1 round trip
	for _, v := range variants {
		c := newSimCluster(n, netsim.Config{Seed: o.seed(), MinDelay: oneWay, MaxDelay: oneWay})
		cli, err := c.client(v.opts...)
		if err != nil {
			c.close()
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)

		if v.isRead {
			w, err := c.client(core.WithSingleWriter())
			if err != nil {
				cancel()
				c.close()
				return nil, err
			}
			if err := w.Write(ctx, "x", []byte("v")); err != nil {
				cancel()
				c.close()
				return nil, err
			}
			settle()
		}
		var fn func() error
		if v.isRead {
			fn = func() error { _, err := cli.Read(ctx, "x"); return err }
		} else {
			fn = func() error { return cli.Write(ctx, "x", []byte("v")) }
		}
		samples, err := latencies(ops, fn)
		cancel()
		c.close()
		if err != nil {
			return nil, fmt.Errorf("T2 %s: %w", v.name, err)
		}
		m := mean(samples)
		if baseline == 0 {
			baseline = m // the first variant is the SWMR write
		}
		inferred := float64(m) / float64(baseline)
		tbl.AddRow(v.name, us(m), us(percentile(samples, 0.99)),
			ratio(inferred), ratio(v.expected))
	}
	return tbl, nil
}
