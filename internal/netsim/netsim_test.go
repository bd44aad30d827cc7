package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/types"
)

func waitMsg(t *testing.T, n *Net, id types.NodeID, timeout time.Duration) (types.NodeID, []byte, bool) {
	t.Helper()
	select {
	case m := <-n.Node(id).Recv():
		return m.From, m.Payload, true
	case <-time.After(timeout):
		return 0, nil, false
	}
}

func TestDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b := n.Node(1), n.Node(2)

	if err := a.Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	from, payload, ok := waitMsg(t, n, 2, time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if from != 1 || string(payload) != "hi" {
		t.Fatalf("got from=%v payload=%q", from, payload)
	}
	_ = b
}

func TestSendToUnknownNode(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	if err := a.Send(99, []byte("x")); !errors.Is(err, types.ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
}

func TestCrashDropsBothDirections(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	c := n.Node(3)
	n.Crash(3)

	if err := a.Send(3, []byte("to crashed")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(1, []byte("from crashed")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 3, 50*time.Millisecond); ok {
		t.Fatal("crashed node received a message")
	}
	if _, _, ok := waitMsg(t, n, 1, 50*time.Millisecond); ok {
		t.Fatal("message from crashed node delivered")
	}
	st := n.Stats()
	if st.Dropped != 2 {
		t.Fatalf("dropped=%d, want 2", st.Dropped)
	}
	if !n.Crashed(3) {
		t.Fatal("Crashed(3) = false")
	}
}

func TestRecover(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	n.Crash(2)
	n.Recover(2)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("no delivery after recover")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	n.Node(3)

	n.Partition([]types.NodeID{1, 2}, []types.NodeID{3})

	if err := a.Send(3, []byte("cross")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 3, 50*time.Millisecond); ok {
		t.Fatal("message crossed partition")
	}
	if err := a.Send(2, []byte("same side")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("message within partition side not delivered")
	}

	n.Heal()
	if err := a.Send(3, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 3, time.Second); !ok {
		t.Fatal("message not delivered after heal")
	}
}

func TestEmptyPartitionIsolatesAll(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	n.Partition()
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, 50*time.Millisecond); ok {
		t.Fatal("message delivered under total partition")
	}
}

func TestBlockLinkIsDirectional(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b := n.Node(1), n.Node(2)
	n.BlockLink(1, 2)

	if err := a.Send(2, []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, 50*time.Millisecond); ok {
		t.Fatal("blocked direction delivered")
	}
	if err := b.Send(1, []byte("reverse")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 1, time.Second); !ok {
		t.Fatal("reverse direction should deliver")
	}

	n.UnblockLink(1, 2)
	if err := a.Send(2, []byte("open")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("unblocked link should deliver")
	}
}

func TestDropProbLosesRoughlyExpectedFraction(t *testing.T) {
	n := New(Config{Seed: 42})
	defer n.Close()
	n.SetDefaultFaults(chaos.Faults{Drop: 0.5})
	a := n.Node(1)
	n.Node(2)

	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send(2, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Sent != total {
		t.Fatalf("sent=%d", st.Sent)
	}
	if st.Dropped < total/3 || st.Dropped > total*2/3 {
		t.Fatalf("dropped=%d out of %d, want near half", st.Dropped, total)
	}
}

func TestStatsByKind(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	for i := 0; i < 3; i++ {
		if err := a.Send(2, []byte{7, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send(2, []byte{9}); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.ByKind[7] != 3 || st.ByKind[9] != 1 {
		t.Fatalf("ByKind=%v", st.ByKind)
	}

	n.ResetStats()
	st = n.Stats()
	if st.Sent != 0 || len(st.ByKind) != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestDelayedDeliveryArrives(t *testing.T) {
	n := New(Config{Seed: 7, MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	start := time.Now()
	if err := a.Send(2, []byte("delayed")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("no delivery")
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Fatalf("delivered too fast: %v", elapsed)
	}
}

func TestDelayScaleZeroMakesInstant(t *testing.T) {
	n := New(Config{Seed: 7, MinDelay: 50 * time.Millisecond, MaxDelay: 60 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	n.SetDelayScale(0)

	start := time.Now()
	if err := a.Send(2, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("no delivery")
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("delay scale 0 still slow: %v", elapsed)
	}
}

func TestSendAfterEndpointClose(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestNetCloseIdempotentAndStopsSends(t *testing.T) {
	n := New(Config{})
	a := n.Node(1)
	n.Node(2)
	n.Close()
	n.Close()
	if err := a.Send(2, []byte("x")); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("want ErrClosed after net close, got %v", err)
	}
}

func TestSameSeedSameDrops(t *testing.T) {
	run := func() int64 {
		n := New(Config{Seed: 99})
		defer n.Close()
		n.SetDefaultFaults(chaos.Faults{Drop: 0.3})
		a := n.Node(1)
		n.Node(2)
		for i := 0; i < 500; i++ {
			_ = a.Send(2, []byte{1})
		}
		return n.Stats().Dropped
	}
	if d1, d2 := run(), run(); d1 != d2 {
		t.Fatalf("same seed produced different drop counts: %d vs %d", d1, d2)
	}
}

func TestReattachReplacesEndpoint(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	old := n.Node(2)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := n.Reattach(2)
	if fresh == old {
		t.Fatal("Reattach returned the old endpoint")
	}
	if err := a.Send(2, []byte("to the new attachment")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("fresh endpoint got nothing")
	}
}

func TestDupProbDeliversTwice(t *testing.T) {
	n := New(Config{Seed: 5})
	defer n.Close()
	n.SetDefaultFaults(chaos.Faults{Dup: 1})
	a := n.Node(1)
	n.Node(2)

	if err := a.Send(2, []byte("dup")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
			t.Fatalf("delivery %d missing", i)
		}
	}
	st := n.Stats()
	if st.Duplicated != 1 || st.Delivered != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBytesByKind(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	if err := a.Send(2, []byte{7, 1, 2, 3}); err != nil { // 4 bytes of kind 7
		t.Fatal(err)
	}
	if err := a.Send(2, []byte{7}); err != nil { // 1 byte of kind 7
		t.Fatal(err)
	}
	if err := a.Send(2, []byte{9, 0}); err != nil { // 2 bytes of kind 9
		t.Fatal(err)
	}
	st := n.Stats()
	if st.BytesByKind[7] != 5 || st.BytesByKind[9] != 2 {
		t.Fatalf("BytesByKind=%v", st.BytesByKind)
	}
}

func TestDelayHistogramCountsDeliveries(t *testing.T) {
	n := New(Config{Seed: 5, MinDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	const msgs = 10
	for i := 0; i < msgs; i++ {
		if err := a.Send(2, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
			t.Fatalf("delivery %d missing", i)
		}
	}
	st := n.Stats()
	if st.Delay.Count != msgs {
		t.Fatalf("delay histogram count=%d, want %d", st.Delay.Count, msgs)
	}
	// Realized delay = sampled delay + scheduling slop, so it can only be
	// at or above the configured minimum.
	if p0 := st.Delay.Quantile(0); p0 < time.Millisecond {
		t.Fatalf("min realized delay %v below configured MinDelay", p0)
	}
}

// TestResetStatsEpoch: a message in flight across ResetStats must not leak
// into the new epoch's counters or delay histogram — the reset's contract.
func TestResetStatsEpoch(t *testing.T) {
	n := New(Config{Seed: 3, MinDelay: 20 * time.Millisecond, MaxDelay: 30 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	if err := a.Send(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	n.ResetStats() // message from the old epoch still in flight

	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("in-flight message must still be delivered after reset")
	}
	st := n.Stats()
	if st.Sent != 0 || st.Delivered != 0 || st.Delay.Count != 0 {
		t.Fatalf("old-epoch delivery leaked into new epoch: %+v", st)
	}

	// The new epoch accounts its own traffic normally.
	if err := a.Send(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("new-epoch message not delivered")
	}
	st = n.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Delay.Count != 1 {
		t.Fatalf("new epoch counters wrong: sent=%d delivered=%d delay.count=%d",
			st.Sent, st.Delivered, st.Delay.Count)
	}
}
