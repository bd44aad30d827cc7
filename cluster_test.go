package abd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/quorum"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestClusterQuickstartFlow(t *testing.T) {
	cluster, err := NewCluster(5, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	client := cluster.Client()
	if err := client.Write(ctx, "greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := client.Read(ctx, "greeting")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "hello" {
		t.Fatalf("read %q", v)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewCluster(100); err == nil {
		t.Fatal("size 100 accepted")
	}
	// Client defaults every client would refuse fail here, not as a panic
	// in the first Client.
	for name, opt := range map[string]core.ClientOption{
		"WithBoundedLabels(0)":    core.WithBoundedLabels(0),
		"WithByzantine(1), n = 3": core.WithByzantine(1),
		"grid sized for 6":        core.WithQuorum(quorum.NewGrid(2, 3)),
	} {
		if c, err := NewCluster(3, WithClientDefaults(opt)); err == nil {
			c.Close()
			t.Errorf("%s accepted", name)
		}
	}
	// The check leaves a valid cluster as it was: the first client is still
	// id 10000, and nothing crossed the cluster's network.
	c, err := NewCluster(3, WithClientDefaults(core.WithBoundedLabels(16)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if id := c.Client().ID(); id != 10000 {
		t.Errorf("first client id %d, want 10000", id)
	}
	if st := c.NetStats(); st.Sent != 0 {
		t.Errorf("%d messages sent before any operation", st.Sent)
	}
}

func TestClusterSurvivesMinorityCrashes(t *testing.T) {
	cluster, err := NewCluster(5, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	client := cluster.Client()

	if err := client.Write(ctx, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	cluster.Crash(0)
	cluster.Crash(4)
	if err := client.Write(ctx, "x", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, err := client.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v2" {
		t.Fatalf("read %q", v)
	}
}

func TestClusterMajorityCrashBlocks(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.Client()

	cluster.Crash(0)
	cluster.Crash(1)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := client.Write(ctx, "x", []byte("v")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("want ErrNoQuorum, got %v", err)
	}
}

func TestClusterWriterFastPath(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	w := cluster.Client(WithSingleWriter())
	for i := 0; i < 5; i++ {
		if err := w.Write(ctx, "x", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if m := w.Metrics(); m.Phases != m.Writes {
		t.Fatalf("writer fast path: %d phases for %d writes", m.Phases, m.Writes)
	}
}

func TestClusterRegisterHandleImplementsInterface(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	var reg Register = cluster.Client().Register("r")
	if err := reg.Write(ctx, []byte("via-interface")); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "via-interface" {
		t.Fatalf("read %q", v)
	}
}

func TestClusterWithGridQuorum(t *testing.T) {
	cluster, err := NewCluster(6, WithSeed(6), WithClientDefaults(core.WithQuorum(quorum.NewGrid(2, 3))))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	client := cluster.Client()

	if err := client.Write(ctx, "x", []byte("grid")); err != nil {
		t.Fatal(err)
	}
	v, err := client.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "grid" {
		t.Fatalf("read %q", v)
	}
}

func TestClusterBoundedTimestamps(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(7), WithClientDefaults(core.WithBoundedLabels(16)))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	w := cluster.Client() // defaults include bounded single-writer mode
	for i := 0; i < 60; i++ {
		if err := w.Write(ctx, "x", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := w.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v59" {
		t.Fatalf("read %q", v)
	}
}

func TestClusterPartitionAndHeal(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.Client()

	ids := cluster.ReplicaIDs()
	cluster.Partition([]NodeID{ids[0], client.ID()}, []NodeID{ids[1], ids[2]})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := client.Write(ctx, "x", []byte("v")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("want ErrNoQuorum, got %v", err)
	}

	cluster.Heal()
	if err := client.Write(testCtx(t), "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestClusterNetStats(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	w := cluster.Client(WithSingleWriter())

	cluster.ResetNetStats()
	if err := w.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Let acks land.
	time.Sleep(10 * time.Millisecond)
	st := cluster.NetStats()
	// SWMR write: n updates + n acks.
	if st.Sent != 6 {
		t.Fatalf("write sent %d messages, want 6", st.Sent)
	}
	if st.ByKind[byte(core.KindWrite)] != 3 || st.ByKind[byte(core.KindWriteAck)] != 3 {
		t.Fatalf("per-kind counts: %v", st.ByKind)
	}
}

// TestMultiWriterQueryShipsNoValues: a multi-writer write's query needs
// the newest tag only, so overwriting a 4 KiB register with a 4 KiB value
// moves fewer reply bytes in its query phase than one copy of the value:
// replicas answer with tags, not with the stored value the writer would
// throw away.
func TestMultiWriterQueryShipsNoValues(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	w := cluster.Client()
	val := bytes.Repeat([]byte{0xA5}, 4096)
	if err := w.Write(ctx, "x", val); err != nil {
		t.Fatal(err)
	}

	cluster.ResetNetStats()
	if err := w.Write(ctx, "x", val); err != nil {
		t.Fatal(err)
	}
	st := cluster.NetStats()
	if got := st.BytesByKind[byte(core.KindReadReply)]; got >= 4096 {
		t.Fatalf("the write's query replies carried %d bytes, want < 4096 (no stored value)", got)
	}
}

func TestClusterLatencyMergesClients(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	w := cluster.Client()
	r := cluster.Client()
	const ops = 5
	for i := 0; i < ops; i++ {
		if err := w.Write(ctx, "x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(ctx, "x"); err != nil {
			t.Fatal(err)
		}
	}

	lat := cluster.Latency()
	if lat.Write.Count != ops || lat.Read.Count != ops {
		t.Fatalf("merged counts: writes=%d reads=%d, want %d each",
			lat.Write.Count, lat.Read.Count, ops)
	}
	// A MW write runs two phases (query+update); a read runs its query plus
	// a write-back iff the repliers did not already hold the pair at a write
	// quorum — every read of the written register is one or the other.
	m := cluster.Metrics()
	if m.ReadRounds != m.Reads+m.WriteBacks || m.FastPathReads+m.WriteBacks != m.Reads {
		t.Fatalf("read accounting: reads=%d rounds=%d fast=%d write-backs=%d",
			m.Reads, m.ReadRounds, m.FastPathReads, m.WriteBacks)
	}
	phases := lat.PhaseQuery.Count + lat.PhaseUpdate.Count
	if want := 3*ops + m.WriteBacks; phases != want {
		t.Fatalf("merged phase count %d, want %d", phases, want)
	}
	if lat.Write.Quantile(0.99) <= 0 || lat.Read.Quantile(0.99) <= 0 {
		t.Fatalf("zero quantiles: %+v", lat)
	}
}
