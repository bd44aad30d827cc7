package abd

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/health"
)

// TestClusterHealthDetectsStraggler crashes one replica, keeps writing
// through the surviving majority, and checks the health facade turns the
// crashed replica's staleness into a live lag gauge.
func TestClusterHealthDetectsStraggler(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	client := cluster.Client()

	// Seed every replica with the register, then fail-stop replica 2 and
	// keep advancing the tag on the surviving quorum.
	if err := client.Write(ctx, "x", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	cluster.Crash(2)
	for i := 1; i <= 5; i++ {
		if err := client.Write(ctx, "x", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	st := cluster.Health()
	if st.Lag == nil {
		t.Fatal("cluster health must include a lag report")
	}
	if st.Lag.Quorum != 2 {
		t.Fatalf("quorum = %d, want 2", st.Lag.Quorum)
	}
	var crashed *health.ReplicaLag
	for i := range st.Lag.Replicas {
		if st.Lag.Replicas[i].Node == 2 {
			crashed = &st.Lag.Replicas[i]
		} else if st.Lag.Replicas[i].Behind != 0 {
			t.Fatalf("live replica flagged behind: %+v", st.Lag.Replicas[i])
		}
	}
	if crashed == nil {
		t.Fatalf("replica 2 missing from lag report: %+v", st.Lag.Replicas)
	}
	if crashed.Behind != 1 || crashed.MaxSeqLag < 5 {
		t.Fatalf("crashed replica lag = %+v, want behind on x with seq lag >= 5", crashed)
	}

	// The client-side views rode along.
	if st.HotKeyTotal < 6 {
		t.Fatalf("hot key total = %d, want >= 6 ops", st.HotKeyTotal)
	}
	if len(st.HotKeys) == 0 || st.HotKeys[0].Key != "x" {
		t.Fatalf("hot keys = %+v, want x on top", st.HotKeys)
	}
	if st.SLO == nil || st.SLO.Name == "" {
		t.Fatalf("slo block missing: %+v", st.SLO)
	}
}

// TestStoreHealthSLOAndHotKeys drives a skewed workload through a sharded
// store and checks the merged client-side health view.
func TestStoreHealthSLOAndHotKeys(t *testing.T) {
	cluster, err := NewCluster(6, WithShards(2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	store := cluster.Store()
	store.SetSLO(health.SLO{Name: "store-ops", Objective: 0.9})

	if st := store.Health(); st.SLO == nil || st.SLO.Name != "store-ops" {
		t.Fatalf("baseline health = %+v", st.SLO)
	}
	for i := 0; i < 40; i++ {
		reg := fmt.Sprintf("k%d", i%8)
		if i%2 == 0 {
			reg = "hot"
		}
		if err := store.Write(ctx, reg, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Health()
	if st.HotKeyTotal != 40 {
		t.Fatalf("hot key total = %d, want 40", st.HotKeyTotal)
	}
	if len(st.HotKeys) == 0 || st.HotKeys[0].Key != "hot" || st.HotKeys[0].Count != 20 {
		t.Fatalf("hot keys = %+v, want hot=20 on top", st.HotKeys)
	}
	if st.SLO.PageActive || st.SLO.TicketActive || len(st.Alerts) != 0 {
		t.Fatalf("healthy in-process cluster must not alert: %+v", st.SLO)
	}
	if st.Lag != nil {
		t.Fatalf("store health has no replica view, Lag must be nil: %+v", st.Lag)
	}
}

// TestByzantineStoreLiarNamedInHealth is the operator question "is anyone
// lying" asked of a Store's clients: a Byzantine Store catches replica 4
// going back from what it reported honestly, and both the Store's and the
// Cluster's health name it. The store's client cannot reach replica 0, so
// every quorum it assembles holds the liar's reply.
func TestByzantineStoreLiarNamedInHealth(t *testing.T) {
	cluster, err := NewCluster(5, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	liar := core.NewLiar(4, 1)
	cluster.Net().SetInterceptor(4, liar.Intercept)
	store := cluster.Store(WithByzantine(1))
	cluster.Net().BlockLink(store.Group(0).ID(), 0)
	ctx := testCtx(t)

	for i := 0; i < 3; i++ {
		if err := store.Write(ctx, "x", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	liar.SetMode(core.ByzStale)
	for i := 0; i < 3; i++ {
		if got, err := store.Read(ctx, "x"); err != nil || string(got) != "v2" {
			t.Fatalf("read = %q, %v; want v2", got, err)
		}
	}

	for name, st := range map[string]health.Status{"store": store.Health(), "cluster": cluster.Health()} {
		b := st.Byzantine
		if b == nil {
			t.Fatalf("%s health has no byzantine block", name)
		}
		if b.ToleratedFaults != 1 || len(b.Suspects) != 1 || b.Suspects[4] == 0 {
			t.Fatalf("%s health byzantine = %+v, want f=1 and only replica 4 suspected", name, b)
		}
	}
}
