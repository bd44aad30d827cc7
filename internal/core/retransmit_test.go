package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
)

// TestRetransmitRestoresLivenessUnderLoss runs the protocol over a lossy
// network (30% drops). Without retransmission most multi-phase ops
// eventually lose a quorum; with it every op completes.
func TestRetransmitRestoresLivenessUnderLoss(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 50})
	c.net.SetDefaultFaults(chaos.Faults{Drop: 0.3})
	cli := c.client(WithRetransmit(5*time.Millisecond, 5*time.Millisecond))
	ctx := shortCtx(t)

	for i := 0; i < 30; i++ {
		mustWrite(t, ctx, cli, "x", fmt.Sprintf("v%d", i))
		if got := mustRead(t, ctx, cli, "x"); got != fmt.Sprintf("v%d", i) {
			t.Fatalf("iteration %d: read %q", i, got)
		}
	}
	if m := cli.Metrics(); m.Retransmits == 0 {
		t.Fatal("no retransmissions occurred at 30% drop probability")
	}
}

// TestNoRetransmitStallsUnderTotalEarlyLoss shows the contrast: drop the
// initial updates to two of three replicas and the phase can never finish
// without retransmission.
func TestNoRetransmitStallsUnderTotalEarlyLoss(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 51})
	noRetry := c.client(WithSingleWriter(), WithRetransmit(0, 0))
	retry := c.client(WithSingleWriter(), WithRetransmit(5*time.Millisecond, 5*time.Millisecond))

	// Blackhole the path to replicas 1 and 2 briefly, then heal: messages
	// sent during the window are gone forever (loss, not delay).
	c.net.BlockLink(noRetry.ID(), 1)
	c.net.BlockLink(noRetry.ID(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	errNoRetry := noRetry.Write(ctx, "x", []byte("lost"))
	if errNoRetry == nil {
		t.Fatal("write should have stalled: its updates were dropped")
	}

	c.net.BlockLink(retry.ID(), 1)
	c.net.BlockLink(retry.ID(), 2)
	go func() {
		time.Sleep(30 * time.Millisecond)
		c.net.UnblockLink(retry.ID(), 1)
		c.net.UnblockLink(retry.ID(), 2)
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := retry.Write(ctx2, "x", []byte("recovered")); err != nil {
		t.Fatalf("retransmitting write failed: %v", err)
	}
	if m := retry.Metrics(); m.Retransmits == 0 {
		t.Fatal("expected retransmissions")
	}
}

// TestAdaptiveRetransmitIsDefault shows the out-of-the-box client recovers
// from early total loss without any retransmission option: the adaptive
// policy rebroadcasts at the floor interval until the quorum assembles.
func TestAdaptiveRetransmitIsDefault(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 53})
	cli := c.client(WithSingleWriter())

	c.net.BlockLink(cli.ID(), 1)
	c.net.BlockLink(cli.ID(), 2)
	go func() {
		time.Sleep(30 * time.Millisecond)
		c.net.UnblockLink(cli.ID(), 1)
		c.net.UnblockLink(cli.ID(), 2)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cli.Write(ctx, "x", []byte("recovered")); err != nil {
		t.Fatalf("default client did not recover from early loss: %v", err)
	}
	if m := cli.Metrics(); m.Retransmits == 0 {
		t.Fatal("expected adaptive retransmissions by default")
	}
}

// TestAdaptiveIntervalTracksObservedLatency pins the interval derivation:
// floor before enough samples, 3x p99 once the histogram is warm, clamped
// to the ceiling when latencies blow up.
func TestAdaptiveIntervalTracksObservedLatency(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 54})
	cli := c.client()

	if got := cli.retransmitInterval(KindReadQuery); got != DefaultRetransmitFloor {
		t.Fatalf("cold interval = %v, want floor %v", got, DefaultRetransmitFloor)
	}

	// Warm the query-phase histogram at ~200ms: interval must move to
	// roughly 3x p99 (log-bucketed, so allow the bucket width).
	for i := 0; i < 100; i++ {
		cli.lat.phaseQuery.Record(200 * time.Millisecond)
	}
	got := cli.retransmitInterval(KindReadQuery)
	if got < 500*time.Millisecond || got > 700*time.Millisecond {
		t.Errorf("warm interval = %v, want ~3x200ms", got)
	}
	// Update phases have their own histogram, still cold.
	if got := cli.retransmitInterval(KindWrite); got != DefaultRetransmitFloor {
		t.Errorf("update interval = %v, want floor (independent histogram)", got)
	}

	// Latency blow-up clamps at the ceiling.
	for i := 0; i < 1000; i++ {
		cli.lat.phaseQuery.Record(5 * time.Second)
	}
	if got := cli.retransmitInterval(KindReadQuery); got != DefaultRetransmitCeiling {
		t.Errorf("inflated interval = %v, want ceiling %v", got, DefaultRetransmitCeiling)
	}

	// Custom bounds via the option.
	tight := c.client(WithRetransmit(10*time.Millisecond, 50*time.Millisecond))
	if got := tight.retransmitInterval(KindReadQuery); got != 10*time.Millisecond {
		t.Errorf("custom floor = %v, want 10ms", got)
	}
	for i := 0; i < 100; i++ {
		tight.lat.phaseQuery.Record(time.Second)
	}
	if got := tight.retransmitInterval(KindReadQuery); got != 50*time.Millisecond {
		t.Errorf("custom ceiling = %v, want 50ms", got)
	}

	// floor == ceiling is a fixed interval, whatever the histogram says.
	fixed := c.client(WithRetransmit(5*time.Millisecond, 5*time.Millisecond))
	for i := 0; i < 100; i++ {
		fixed.lat.phaseQuery.Record(time.Second)
	}
	if got := fixed.retransmitInterval(KindReadQuery); got != 5*time.Millisecond {
		t.Errorf("fixed interval = %v, want 5ms", got)
	}

	// A floor <= 0 turns retransmission off entirely.
	off := c.client(WithRetransmit(0, 0))
	if got := off.retransmitInterval(KindReadQuery); got != 0 {
		t.Errorf("disabled interval = %v, want 0", got)
	}
}

// TestRetransmitIsIdempotent checks that duplicated updates do not corrupt
// replica state: the final value and timestamp are the same as a clean run.
func TestRetransmitIsIdempotent(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 52})
	c.net.SetDefaultFaults(chaos.Faults{Drop: 0.2})
	cli := c.client(WithSingleWriter(), WithRetransmit(2*time.Millisecond, 2*time.Millisecond))
	ctx := shortCtx(t)

	for i := 0; i < 20; i++ {
		mustWrite(t, ctx, cli, "x", fmt.Sprintf("v%d", i))
	}
	if got := mustRead(t, ctx, cli, "x"); got != "v19" {
		t.Fatalf("read %q", got)
	}
	// Every replica that has the register must hold seq 20 / v19 or an
	// in-flight older pair — never anything newer than the 20 writes issued.
	time.Sleep(20 * time.Millisecond)
	for i := range c.replicas {
		tag, _ := c.replicas[i].State("x")
		if tag.Valid && tag.TS.Seq > 20 {
			t.Fatalf("replica %d: timestamp %d exceeds writes issued", i, tag.TS.Seq)
		}
	}
}
