package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/types"
)

// testCluster wires a simulated network, n replicas (node ids 0..n-1), and
// on-demand clients (node ids 1000+).
type testCluster struct {
	t        *testing.T
	net      *netsim.Net
	replicas []*Replica
	ids      []types.NodeID
	clients  []*Client
	nextCli  types.NodeID
	ropts    []ReplicaOption
}

func newTestCluster(t *testing.T, n int, cfg netsim.Config, ropts ...ReplicaOption) *testCluster {
	t.Helper()
	c := &testCluster{
		t:       t,
		net:     netsim.New(cfg),
		nextCli: 1000,
		ropts:   ropts,
	}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		r := NewReplica(id, c.net.Node(id), ropts...)
		r.Start()
		c.replicas = append(c.replicas, r)
		c.ids = append(c.ids, id)
	}
	t.Cleanup(c.close)
	return c
}

func (c *testCluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}

func (c *testCluster) client(opts ...ClientOption) *Client {
	c.t.Helper()
	id := c.nextCli
	c.nextCli++
	cl, err := NewClient(id, c.net.Node(id), c.ids, opts...)
	if err != nil {
		c.t.Fatal(err)
	}
	c.clients = append(c.clients, cl)
	return cl
}

func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func mustWrite(t *testing.T, ctx context.Context, c *Client, reg string, val string) {
	t.Helper()
	if err := c.Write(ctx, reg, []byte(val)); err != nil {
		t.Fatalf("write %q=%q: %v", reg, val, err)
	}
}

func mustRead(t *testing.T, ctx context.Context, c *Client, reg string) string {
	t.Helper()
	v, err := c.Read(ctx, reg)
	if err != nil {
		t.Fatalf("read %q: %v", reg, err)
	}
	return string(v)
}

// install stores (tag, val) under reg at replica i directly, bypassing the
// protocol: the soundness tests need exact control over who holds a pair.
func (c *testCluster) install(i int, reg string, tag Tag, val string) {
	r := c.replicas[i]
	r.mu.Lock()
	r.regs[reg] = regEntry{tag: tag, val: types.Value(val)}
	r.mu.Unlock()
}

// holding returns the set of replicas that store val under reg.
func (c *testCluster) holding(reg, val string) quorum.Set {
	var s quorum.Set
	for i, r := range c.replicas {
		if _, v := r.State(reg); string(v) == val {
			s = s.Add(i)
		}
	}
	return s
}

// waitStored blocks until every replica of c stores val under reg — the
// quiescent state the one-round tests start from (a write returns at a
// write quorum; the stragglers adopt a moment later).
func waitStored(t *testing.T, c *testCluster, reg, val string) {
	t.Helper()
	waitFor(t, func() bool { return c.holding(reg, val).Count() == len(c.replicas) })
}
