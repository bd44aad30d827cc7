package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/quorum"
)

// queries returns how many query requests each replica of c has handled.
func queries(c *testCluster) []int64 {
	out := make([]int64, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.ReplicaMetrics().Queries
	}
	return out
}

func TestReadFanoutLimitsMessages(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 80})
	w := c.client(WithSingleWriter())
	ctx := shortCtx(t)
	mustWrite(t, ctx, w, "x", "v")
	waitStored(t, c, "x", "v")

	// The default minimal quorum (3 of 5) asks exactly a majority; the
	// holders among them prove the fast path. Asking everyone (the paper)
	// sends all five.
	for _, tc := range []struct {
		cli  *Client
		want int64
	}{{c.client(), 6}, {c.client(WithRetransmit(0, 0)), 10}} {
		c.net.ResetStats()
		if got := mustRead(t, ctx, tc.cli, "x"); got != "v" {
			t.Fatalf("read %q", got)
		}
		time.Sleep(10 * time.Millisecond)
		// One query phase: a query and a reply per replica asked.
		if st := c.net.Stats(); st.Sent != tc.want {
			t.Fatalf("read sent %d messages, want %d", st.Sent, tc.want)
		}
	}
}

func TestFanoutRotatesTargets(t *testing.T) {
	c := newTestCluster(t, 4, netsim.Config{Seed: 81})
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)
	mustWrite(t, ctx, w, "x", "v")

	// Each read asks a minimal quorum (3 of 4); the rotation must spread
	// the queries over every replica, and no read asks all four.
	for i := 0; i < 12; i++ {
		mustRead(t, ctx, r, "x")
	}
	var total int64
	for i, q := range queries(c) {
		if q == 0 {
			t.Fatalf("replica %d never queried by the rotating targets", i)
		}
		total += q
	}
	if total != 12*3 {
		t.Fatalf("12 reads sent %d queries, want 36", total)
	}
}

// TestCrashedTargetCostsOneRetransmitInterval: with one replica crashed,
// the first query whose minimal quorum includes it waits one retransmit
// interval, re-sends to every replica that has not answered and completes;
// the crashed replica is then silent, so later queries are chosen to
// complete without it and retransmit nothing. Silent replicas are still
// asked, so reads alone bring the recovered replica back into rotation.
func TestCrashedTargetCostsOneRetransmitInterval(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 82})
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)
	mustWrite(t, ctx, w, "x", "v")

	c.net.Crash(0)
	widened := int64(-1)
	for i := 0; i < 20; i++ {
		octx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		_, err := r.Read(octx, "x")
		cancel()
		if err != nil {
			t.Fatalf("read %d failed with one replica of five crashed: %v", i, err)
		}
		rt := r.Metrics().Retransmits
		switch {
		case widened < 0 && rt > 0:
			widened = rt
		case widened >= 0 && rt != widened:
			t.Fatalf("read %d retransmitted after the crashed replica went silent: %d, then %d", i, widened, rt)
		}
	}
	if widened < 0 {
		t.Fatal("no query targeted the crashed replica in 20 rotations over 5")
	}
	if got := quorum.Set(r.silent.Load()); got != quorum.Set(0).Add(0) {
		t.Fatalf("silent = %b, want only replica 0", got)
	}

	c.net.Recover(0)
	waitFor(t, func() bool {
		mustRead(t, ctx, r, "x")
		return r.silent.Load() == 0
	})
	before := queries(c)[0]
	for i := 0; i < 5; i++ {
		mustRead(t, ctx, r, "x")
	}
	if queries(c)[0] == before {
		t.Fatal("the recovered replica was never queried again")
	}
	if rt := r.Metrics().Retransmits; rt != widened {
		t.Fatalf("reads after recovery retransmitted: %d, then %d", widened, rt)
	}
}

// TestFanoutZeroAndOversizedMeanAll: whether queries ask one quorum (the
// default) or everyone (retransmission off), and whatever the quorum
// system, updates go to every replica.
func TestFanoutZeroAndOversizedMeanAll(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 83})
	for _, opts := range [][]ClientOption{
		nil,
		{WithRetransmit(0, 0)},
		{WithQuorum(quorum.NewReadOneWriteAll(3))},
		{WithQuorum(quorum.NewReadAllWriteOne(3))},
	} {
		cli := c.client(append([]ClientOption{WithSingleWriter()}, opts...)...)
		c.net.ResetStats()
		mustWrite(t, shortCtx(t), cli, "x", "v")
		time.Sleep(10 * time.Millisecond)
		if st := c.net.Stats(); st.Sent != 6 {
			t.Fatalf("%d options: write sent %d, want 6 (all replicas)", len(opts), st.Sent)
		}
	}
}

// TestTargetTable checks each client's query target tables for every
// quorum system in internal/quorum: each set satisfies its predicate (a
// read quorum; a read and a write quorum for a ReadAtomic read), no member
// can be dropped from it, and the rotations cover every replica.
func TestTargetTable(t *testing.T) {
	for _, tc := range []struct {
		sys  quorum.System
		opts []ClientOption
	}{
		{sys: quorum.NewMajority(3)},
		{sys: quorum.NewMajority(5)},
		{sys: quorum.NewGrid(3, 3)},
		{sys: quorum.NewWeighted([]int{3, 1, 1, 1, 1}, 4, 4)},
		{sys: quorum.NewReadOneWriteAll(4)},
		{sys: quorum.NewReadAllWriteOne(4)},
		{sys: quorum.NewMasking(5, 1), opts: []ClientOption{WithByzantine(1)}},
	} {
		t.Run(tc.sys.Name(), func(t *testing.T) {
			n := tc.sys.Size()
			c := newTestCluster(t, n, netsim.Config{Seed: 85})
			cli := c.client(append([]ClientOption{WithQuorum(tc.sys)}, tc.opts...)...)
			qs := cli.qs
			for _, table := range []struct {
				name string
				sets []quorum.Set
				pred func(quorum.Set) bool
			}{
				{"query", cli.queryTargets, qs.ContainsReadQuorum},
				{"fast", cli.fastTargets, func(s quorum.Set) bool {
					return qs.ContainsReadQuorum(s) && qs.ContainsWriteQuorum(s)
				}},
			} {
				if len(table.sets) != n {
					t.Fatalf("%s table has %d rotations, want %d", table.name, len(table.sets), n)
				}
				var cover quorum.Set
				for s, set := range table.sets {
					if !table.pred(set) {
						t.Errorf("%s rotation %d: %b does not satisfy its predicate", table.name, s, set)
					}
					for i := 0; i < n; i++ {
						if set.Has(i) && table.pred(set&^(1<<i)) {
							t.Errorf("%s rotation %d: %b is not minimal, %d can go", table.name, s, set, i)
						}
					}
					cover |= set
				}
				if cover != quorum.Full(n) {
					t.Errorf("%s rotations cover %b, not every replica", table.name, cover)
				}
			}
		})
	}
}

// TestTargetsFallBackToEveryone: a phase asks every replica when
// retransmission is off (the paper's reliable channels: nothing would widen
// a partial phase), under bounded labels, and when every rotation holds a
// silent replica; otherwise it asks a rotation plus the silent replicas.
func TestTargetsFallBackToEveryone(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 86})
	for _, cli := range []*Client{c.client(WithRetransmit(0, 0)), c.client(WithBoundedLabels(8))} {
		if cli.queryTargets != nil || cli.fastTargets != nil {
			t.Fatalf("target tables %v / %v, want none", cli.queryTargets, cli.fastTargets)
		}
		if got := cli.targets(cli.queryTargets); got != quorum.Full(5) {
			t.Fatalf("targets %b, want all", got)
		}
	}
	cli := c.client()
	silent := quorum.Set(0).Add(0)
	cli.silent.Store(uint64(silent))
	for i := 0; i < 10; i++ {
		got := cli.targets(cli.queryTargets)
		if !got.Has(0) || !cli.qs.ContainsReadQuorum(got&^silent) || got.Count() != 4 {
			t.Fatalf("targets %b with replica 0 silent, want a majority without it, plus it", got)
		}
	}
	cli.silent.Store(uint64(quorum.Full(5)))
	if got := cli.targets(cli.queryTargets); got != quorum.Full(5) {
		t.Fatalf("targets %b with every replica silent, want all", got)
	}
}

func TestROWAViaFanoutAndQuorum(t *testing.T) {
	// ROWA's minimal read quorum is one replica, so a read asks one.
	c := newTestCluster(t, 4, netsim.Config{Seed: 84})
	cli := c.client(
		WithQuorum(quorum.NewReadOneWriteAll(4)),
		WithSingleWriter(),
		WithReadMode(ReadRegular),
	)
	ctx := shortCtx(t)
	mustWrite(t, ctx, cli, "x", "v")
	c.net.ResetStats()
	if got := mustRead(t, ctx, cli, "x"); got != "v" {
		t.Fatalf("read %q", got)
	}
	time.Sleep(10 * time.Millisecond)
	if st := c.net.Stats(); st.Sent != 2 {
		t.Fatalf("read-one sent %d messages, want 2", st.Sent)
	}
}
