package shard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/types"
)

// TestRingDeterministic pins the router invariant rebalancing reviews rely
// on: the register→group map is a pure function of (groups, vnodes, hash).
// Two independently built rings agree on every name, and the map for a
// fixed configuration is pinned by golden samples — if either ever changes,
// committed shard maps silently move registers between groups.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(3, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(3, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		reg := fmt.Sprintf("reg-%d", i)
		if ga, gb := a.Lookup(reg), b.Lookup(reg); ga != gb {
			t.Fatalf("ring disagreement on %q: %d vs %d", reg, ga, gb)
		}
	}

	// Golden pins for the default configuration (3 groups, default vnodes,
	// FNV-1a). A change here is a breaking change to every committed map.
	golden, err := NewRing(3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"r0": 2, "r1": 0, "r2": 2, "r3": 2, "r4": 2,
		"greeting": 1, "accounts/42": 1, "snap/0": 1,
	}
	for reg, g := range want {
		if got := golden.Lookup(reg); got != g {
			t.Errorf("golden map moved: %q now in group %d, pinned %d", reg, got, g)
		}
	}
}

// TestRingBalance: virtual nodes keep the assignment roughly even — no
// group owns more than twice its fair share of a large uniform namespace.
func TestRingBalance(t *testing.T) {
	const groups, names = 4, 20000
	r, err := NewRing(groups, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, groups)
	for i := 0; i < names; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	fair := names / groups
	for g, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Fatalf("group %d owns %d of %d names (fair share %d): ring too skewed", g, c, names, fair)
		}
	}
}

func TestRingRejectsZeroGroups(t *testing.T) {
	if _, err := NewRing(0, 0, nil); err == nil {
		t.Fatal("NewRing(0) succeeded")
	}
}

// newTestStore builds a store over `groups` netsim replica groups of
// `perGroup` replicas each, all on one simulated network.
func newTestStore(t *testing.T, groups, perGroup int) (*Store, *netsim.Net) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 1})
	clients := make([]*core.Client, groups)
	for g := 0; g < groups; g++ {
		ids := make([]types.NodeID, perGroup)
		for i := 0; i < perGroup; i++ {
			id := types.NodeID(g*perGroup + i)
			ids[i] = id
			rep := core.NewReplica(id, net.Node(id))
			rep.Start()
			t.Cleanup(rep.Stop)
		}
		cli, err := core.NewClient(types.NodeID(10000+g), net.Node(types.NodeID(10000+g)), ids)
		if err != nil {
			t.Fatal(err)
		}
		clients[g] = cli
	}
	st, err := New(clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.Close()
		net.Drain()
		net.Close()
	})
	return st, net
}

// TestStoreRoutesAndReads: writes through a 3-group store land on exactly
// one group (the ring's choice) and read back through both the store and
// the owning group's client directly.
func TestStoreRoutesAndReads(t *testing.T) {
	st, _ := newTestStore(t, 3, 3)
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
	st, _ := newTestStore(t, 2, 3)
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
	st, _ := newTestStore(t, 3, 3)
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
	st, net := newTestStore(t, 3, 3)
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
	net.Crash(3)
	net.Crash(4)

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
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) succeeded")
	}
	st, net := newTestStore(t, 2, 1)
	// One store, one read rule: a group client in another read mode is
	// rejected.
	two, err := core.NewClient(20000, net.Node(20000), []types.NodeID{1}, core.WithReadMode(core.ReadTwoPhase))
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	if _, err := New([]*core.Client{st.Group(0), two}); err == nil {
		t.Fatal("mixed read modes not rejected")
	}
}

// TestTagTracer: the wrapper stamps the 1-based shard tag and forwards.
func TestTagTracer(t *testing.T) {
	col := obs.NewCollector(0)
	tr := Tag(col, 2)
	tr.Emit(obs.Span{Kind: "read"})
	spans := col.Spans()
	if len(spans) != 1 || spans[0].Shard != 3 {
		t.Fatalf("tagged span = %+v, want Shard 3", spans)
	}
	if Tag(nil, 0) != nil {
		t.Fatal("Tag(nil) must stay nil")
	}
}
