package shard_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	abd "repro"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/types"
)

// newCluster starts groups*perGroup replicas split into groups replica
// groups on one simulated network. Cleanup closes the cluster, and with it
// every store it handed out.
func newCluster(t *testing.T, groups, perGroup int) *abd.Cluster {
	t.Helper()
	c, err := abd.NewCluster(groups*perGroup, abd.WithShards(groups))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestStoreRoutesAndReads: writes through a 3-group store land on exactly
// one group (the ring's choice) and read back through both the store and
// the owning group's client directly.
func TestStoreRoutesAndReads(t *testing.T) {
	st := newCluster(t, 3, 3).Store()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i := 0; i < 30; i++ {
		reg := fmt.Sprintf("route-%d", i)
		val := []byte(fmt.Sprintf("v%d", i))
		if err := st.Write(ctx, reg, val); err != nil {
			t.Fatalf("write %q: %v", reg, err)
		}
		got, err := st.Read(ctx, reg)
		if err != nil {
			t.Fatalf("read %q: %v", reg, err)
		}
		if !got.Equal(val) {
			t.Fatalf("read %q = %q, want %q", reg, got, val)
		}

		// The owning group sees the register; a different group must not.
		owner := st.Shard(reg)
		direct, err := st.Group(owner).Read(ctx, reg)
		if err != nil {
			t.Fatalf("direct read %q: %v", reg, err)
		}
		if !direct.Equal(val) {
			t.Fatalf("owner group %d reads %q, want %q", owner, direct, val)
		}
		other, err := st.Group((owner+1)%st.Shards()).Read(ctx, reg)
		if err != nil {
			t.Fatalf("other-group read: %v", err)
		}
		if other != nil {
			t.Fatalf("group %d holds %q=%q; registers must never span groups",
				(owner+1)%st.Shards(), reg, other)
		}
	}
}

// TestStoreRegisterHandle: the handle resolves its group once and behaves
// like the plain RW surface.
func TestStoreRegisterHandle(t *testing.T) {
	st := newCluster(t, 2, 3).Store()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var reg types.Register = st.Register("handle")
	if err := reg.Write(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "x" {
		t.Fatalf("handle read %q", got)
	}
}

// TestStoreMergesMetricsAndLatency: the store-level snapshots are the sums
// of the per-group clients'.
func TestStoreMergesMetricsAndLatency(t *testing.T) {
	st := newCluster(t, 3, 3).Store()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const n = 24
	for i := 0; i < n; i++ {
		reg := fmt.Sprintf("m-%d", i)
		if err := st.Write(ctx, reg, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Read(ctx, reg); err != nil {
			t.Fatal(err)
		}
	}

	// Quiesce before comparing: a straggler reply dispatched between the
	// merged and the per-group snapshot would move a counter in one but not
	// the other. Closing the group clients waits out their last dispatch.
	st.Close()
	m := st.Metrics()
	if m.Reads != n || m.Writes != n {
		t.Fatalf("merged metrics: reads=%d writes=%d, want %d each", m.Reads, m.Writes, n)
	}
	var perGroup core.MetricsSnapshot
	groupsUsed := 0
	for _, gm := range st.GroupMetrics() {
		perGroup = perGroup.Merge(gm)
		if gm.Reads > 0 {
			groupsUsed++
		}
	}
	if perGroup != m {
		t.Fatalf("sum of group metrics %+v != merged %+v", perGroup, m)
	}
	if groupsUsed < 2 {
		t.Fatalf("only %d of %d groups saw traffic; ring not spreading", groupsUsed, st.Shards())
	}
	if lat := st.Latency(); lat.Read.Count != n || lat.Write.Count != n {
		t.Fatalf("merged latency counts read=%d write=%d, want %d each", lat.Read.Count, lat.Write.Count, n)
	}
}

// TestStoreShardIsolation: crashing a majority of one group blocks only
// that group's registers; every other shard keeps serving.
func TestStoreShardIsolation(t *testing.T) {
	c := newCluster(t, 3, 3)
	st := c.Store()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Find a register per group.
	regFor := make(map[int]string)
	for i := 0; len(regFor) < 3; i++ {
		reg := fmt.Sprintf("iso-%d", i)
		if _, ok := regFor[st.Shard(reg)]; !ok {
			regFor[st.Shard(reg)] = reg
		}
	}
	for _, reg := range regFor {
		if err := st.Write(ctx, reg, []byte("pre")); err != nil {
			t.Fatal(err)
		}
	}

	// Crash a majority of group 1 (replicas 3,4 of ids 3..5).
	c.Crash(3)
	c.Crash(4)

	short, scancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer scancel()
	if err := st.Write(short, regFor[1], []byte("post")); err == nil {
		t.Fatal("write to majority-crashed group succeeded")
	}
	for g, reg := range regFor {
		if g == 1 {
			continue
		}
		if err := st.Write(ctx, reg, []byte("post")); err != nil {
			t.Fatalf("healthy group %d blocked by group 1's crash: %v", g, err)
		}
	}
}

func TestStoreRejectsBadConfig(t *testing.T) {
	if _, err := shard.New(nil); err == nil {
		t.Fatal("New(nil) succeeded")
	}
	c := newCluster(t, 2, 1)
	st := c.Store()
	// One store, one read rule: a group client in another read mode is
	// rejected.
	two, err := core.NewClient(20000, c.Net().Node(20000), []types.NodeID{1}, core.WithReadMode(core.ReadTwoPhase))
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	if _, err := shard.New([]*core.Client{st.Group(0), two}); err == nil {
		t.Fatal("mixed read modes not rejected")
	}
}
