package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/quorum"
)

func TestReadFanoutLimitsMessages(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 80})
	// Contact exactly a majority (3 of 5) per phase instead of all 5.
	cli := c.client(WithSingleWriter(), WithReadFanout(3), WithWriteFanout(3))
	ctx := shortCtx(t)

	mustWrite(t, ctx, cli, "x", "v")
	time.Sleep(10 * time.Millisecond)
	st := c.net.Stats()
	// One write phase: 3 updates + 3 acks.
	if st.Sent != 6 {
		t.Fatalf("fanout-3 write sent %d messages, want 6", st.Sent)
	}
}

func TestFanoutRotatesTargets(t *testing.T) {
	c := newTestCluster(t, 4, netsim.Config{Seed: 81})
	cli := c.client(WithSingleWriter(), WithWriteFanout(3))
	ctx := shortCtx(t)

	// Enough writes that rotation covers every replica; all four replicas
	// must end up having adopted something.
	for i := 0; i < 12; i++ {
		mustWrite(t, ctx, cli, "x", "v")
	}
	time.Sleep(20 * time.Millisecond)
	for i := range c.replicas {
		if tag, _ := c.replicas[i].State("x"); !tag.Valid {
			t.Fatalf("replica %d never reached by rotating fanout", i)
		}
	}
}

// TestFanoutCouplesLivenessToTargets shows the trade-off: with fanout
// exactly the quorum size, one crash among the contacted replicas stalls
// that phase (while a full-broadcast client sails through) — until rotation
// moves the window off the dead replica.
func TestFanoutCouplesLivenessToTargets(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 82})
	narrow := c.client(WithSingleWriter(), WithWriteFanout(3))
	broad := c.client(WithSingleWriter())
	ctx := shortCtx(t)

	c.net.Crash(0)

	// The broad client never notices the crash.
	mustWrite(t, ctx, broad, "b", "v")

	// The narrow client stalls whenever its 3-replica window covers the
	// dead node; with per-op deadlines and rotation, some ops fail and some
	// succeed.
	okCount, failCount := 0, 0
	for i := 0; i < 10; i++ {
		octx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
		if err := narrow.Write(octx, "n", []byte("v")); err != nil {
			failCount++
		} else {
			okCount++
		}
		cancel()
	}
	if okCount == 0 {
		t.Fatal("rotating fanout never found a live window")
	}
	if failCount == 0 {
		t.Fatal("no window ever covered the dead replica in 10 rotations over 5 nodes")
	}
}

func TestFanoutZeroAndOversizedMeanAll(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 83})
	for _, k := range []int{0, 3, 99} {
		cli := c.client(WithSingleWriter(), WithWriteFanout(k))
		c.net.ResetStats()
		mustWrite(t, shortCtx(t), cli, "x", "v")
		time.Sleep(10 * time.Millisecond)
		if st := c.net.Stats(); st.Sent != 6 {
			t.Fatalf("fanout=%d: sent %d, want 6 (all replicas)", k, st.Sent)
		}
	}
}

func TestROWAViaFanoutAndQuorum(t *testing.T) {
	// The composition used by baseline.NewROWAClient, exercised directly.
	c := newTestCluster(t, 4, netsim.Config{Seed: 84})
	cli := c.client(
		WithQuorum(quorum.NewReadOneWriteAll(4)),
		WithSingleWriter(),
		WithReadFanout(1),
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
