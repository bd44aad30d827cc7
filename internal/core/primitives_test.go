package core

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/timestamp"
)

func TestQueryMaxAndPropagate(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 26})
	w := c.client(WithSingleWriter())
	tool := c.client() // a repair tool using the phase primitives
	ctx := shortCtx(t)

	// Initial state: invalid tag, nil value.
	tag, val, err := tool.QueryMax(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if tag.Valid || val != nil {
		t.Fatalf("fresh register: tag=%+v val=%v", tag, val)
	}

	mustWrite(t, ctx, w, "x", "v1")
	tag, val, err = tool.QueryMax(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !tag.Valid || string(val) != "v1" {
		t.Fatalf("after write: tag=%+v val=%q", tag, val)
	}

	// Propagate a successor pair by hand; a subsequent read must see it.
	next := tool.NextTagAfter("x", tag)
	if !tag.TS.Less(next.TS) {
		t.Fatalf("NextTagAfter not newer: %v -> %v", tag.TS, next.TS)
	}
	if err := tool.Propagate(ctx, "x", next, []byte("repaired")); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, ctx, tool, "x"); got != "repaired" {
		t.Fatalf("read %q after propagate", got)
	}
}

func TestQueryMaxIsOnlyRegular(t *testing.T) {
	// QueryMax does not write back: a pair present at one replica only is
	// reported but not propagated.
	c := newTestCluster(t, 3, netsim.Config{Seed: 27})
	tool := c.client()
	ctx := shortCtx(t)

	// Install a pair at replica 0 only, bypassing the protocol.
	planted := message{Kind: KindWrite, Op: 1, Reg: "x",
		Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 5, Writer: 9}}, Val: []byte("planted")}
	if err := c.net.Node(3000).Send(0, planted.encode()); err != nil {
		t.Fatal(err)
	}
	waitReplicaValue(t, c, 0, "x", "planted")

	// Run QueryMax a few times; when replica 0 is in the quorum it reports
	// the planted pair, but replicas 1 and 2 must remain untouched.
	for i := 0; i < 6; i++ {
		if _, _, err := tool.QueryMax(ctx, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if tag, _ := c.replicas[1].State("x"); tag.Valid {
		t.Fatal("QueryMax propagated to replica 1")
	}
	if tag, _ := c.replicas[2].State("x"); tag.Valid {
		t.Fatal("QueryMax propagated to replica 2")
	}
}

func TestAccessors(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 28})
	cli := c.client()
	ctx := shortCtx(t)

	if got := c.replicas[1].ID(); got != 1 {
		t.Fatalf("replica ID %v", got)
	}
	reg := cli.Register("named")
	if h, ok := reg.(*Register); !ok || h.Name() != "named" {
		t.Fatalf("register handle %T, want *core.Register named %q", reg, "named")
	}
	if err := reg.Write(ctx, []byte("via-handle")); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "via-handle" {
		t.Fatalf("read %q", v)
	}

	// A completed phase proves only that some quorum handled it, not which
	// replicas did, so the check is on counts summed over the group: the
	// write's update phase reached at least a write quorum, and its query
	// phase plus the read's at least two read quorums.
	var queries, updates int64
	for _, r := range c.replicas {
		m := r.ReplicaMetrics()
		queries += m.Queries
		updates += m.Updates
	}
	readQ, writeQ := quorum.MinQuorumSizes(cli.qs)
	if updates < int64(writeQ) || queries < int64(2*readQ) {
		t.Fatalf("replicas handled %d queries and %d updates, want >= %d and >= %d",
			queries, updates, 2*readQ, writeQ)
	}
}
