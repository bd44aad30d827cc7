package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/timestamp"
	"repro/internal/types"
)

func TestBoundedModeBasic(t *testing.T) {
	const window = 16
	c := newTestCluster(t, 3, netsim.Config{Seed: 20})
	w := c.client(WithBoundedLabels(window))
	r := c.client(WithBoundedLabels(window))
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "v1")
	if got := mustRead(t, ctx, r, "x"); got != "v1" {
		t.Fatalf("read %q", got)
	}
}

func TestBoundedModeLabelsStayInDomain(t *testing.T) {
	// T4's claim: the label never grows — it wraps within the 3L domain no
	// matter how many writes happen.
	const window = 8 // domain 24
	c := newTestCluster(t, 3, netsim.Config{Seed: 21})
	w := c.client(WithBoundedLabels(window))
	r := c.client(WithBoundedLabels(window))
	ctx := shortCtx(t)

	for i := 0; i < 200; i++ { // several times around the domain
		mustWrite(t, ctx, w, "x", fmt.Sprintf("v%d", i))
	}
	if got := mustRead(t, ctx, r, "x"); got != "v199" {
		t.Fatalf("read %q, want v199", got)
	}
	for i, rep := range c.replicas {
		tag, _ := rep.State("x")
		if tag.Window != window || tag.Label < 0 || tag.Label >= 3*window {
			t.Fatalf("replica %d label %d outside domain [0,%d)", i, tag.Label, 3*window)
		}
	}
}

func TestBoundedModeRequiresSingleWriter(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	// WithBoundedLabels implies single-writer, so constructing is fine.
	cli, err := NewClient(1, net.Node(1), c3ids(), WithBoundedLabels(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if !cli.singleWriter || !cli.bounded {
		t.Fatal("WithBoundedLabels must imply single-writer bounded mode")
	}
	// A window below 1 names no cyclic domain: NewClient rejects it instead
	// of leaving the client unbounded.
	for _, l := range []int64{0, -1} {
		if _, err := NewClient(2, net.Node(2), c3ids(), WithBoundedLabels(l)); err == nil {
			t.Errorf("WithBoundedLabels(%d) accepted", l)
		}
	}
}

// TestMixedWindowWriteIsRefused: the label window travels in the tag, so a
// write whose query finds the register under another window fails at once
// with an order error, without sending an update, and the register keeps
// its value. Both directions: a bounded write onto an unbounded register,
// and a multi-writer unbounded write onto a bounded one. A single writer
// sends no query, so its update reaches the replicas, and every replica
// counts an order violation and withholds its ack: that write fails at its
// deadline instead of being acknowledged and lost.
func TestMixedWindowWriteIsRefused(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 24})
	ctx := shortCtx(t)
	refused := func(w *Client, reg, val string) {
		t.Helper()
		short, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		start := time.Now()
		err := w.Write(short, reg, []byte(val))
		if err == nil {
			t.Fatalf("write %q=%q across label windows acknowledged", reg, val)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("write %q=%q took %v to fail, want < 100ms", reg, val, took)
		}
		if m := w.Metrics(); !errors.Is(err, types.ErrBadMessage) || m.OrderViolations != 1 || m.Phases != 1 {
			t.Errorf("write %q=%q: got %v after %d phases with %d order violations, want one order error after the query alone",
				reg, val, err, m.Phases, m.OrderViolations)
		}
	}

	mustWrite(t, ctx, c.client(), "x", "a")
	refused(c.client(WithBoundedLabels(8)), "x", "b")
	if got := mustRead(t, ctx, c.client(), "x"); got != "a" {
		t.Fatalf("read %q, want a", got)
	}

	mustWrite(t, ctx, c.client(WithBoundedLabels(8)), "y", "c")
	refused(c.client(), "y", "d")

	// The replicas' own refusal, reached by a single writer's update.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := c.client(WithSingleWriter()).Write(short, "y", []byte("e")); err == nil {
		t.Fatal("single-writer write across label windows acknowledged")
	}
	if got := mustRead(t, ctx, c.client(WithBoundedLabels(8)), "y"); got != "c" {
		t.Fatalf("read %q, want c", got)
	}
	for i, r := range c.replicas {
		if m := r.ReplicaMetrics(); m.OrderViolations == 0 {
			t.Errorf("replica %d counted no order violation: %+v", i, m)
		}
	}
}

func TestBoundedModeSurvivesMinorityCrash(t *testing.T) {
	const window = 16
	c := newTestCluster(t, 5, netsim.Config{Seed: 22})
	w := c.client(WithBoundedLabels(window))
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "before")
	c.net.Crash(0)
	c.net.Crash(1)
	for i := 0; i < 50; i++ { // wrap the domain with two replicas dark
		mustWrite(t, ctx, w, "x", fmt.Sprintf("v%d", i))
	}
	r := c.client(WithBoundedLabels(window))
	if got := mustRead(t, ctx, r, "x"); got != "v49" {
		t.Fatalf("read %q, want v49", got)
	}
}

func TestBoundedModeDetectsWindowViolation(t *testing.T) {
	// Force a replica to lag more writes than the window allows. When its
	// ancient label re-enters a writer's query quorum, the writer must
	// detect that the live set is incomparable (ErrOutOfWindow) instead of
	// silently mis-ordering — the reason the domain is 3L, not 2L+1.
	const window = 4 // domain 12 — tiny, easy to violate
	c := newTestCluster(t, 3, netsim.Config{Seed: 23})
	w := c.client(WithBoundedLabels(window))
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "old") // label 0 everywhere
	// Cut replica 2 off from the writer, then run past the window so
	// replica 2 keeps the ancient label 0 while fresh labels move on.
	c.net.BlockLink(w.ID(), 2)
	for i := 0; i < 6; i++ { // labels 1..6; Compare(0, 6) is in the dead zone
		mustWrite(t, ctx, w, "x", fmt.Sprintf("v%d", i))
	}
	c.net.UnblockLink(w.ID(), 2)
	// Force the next query quorum to include the stale replica: {1,2}.
	c.net.BlockLink(w.ID(), 0)
	c.net.BlockLink(0, w.ID())

	err := w.Write(ctx, "x", []byte("fresh"))
	if err == nil {
		t.Fatal("write succeeded despite an out-of-window live set")
	}
	if !errors.Is(err, timestamp.ErrOutOfWindow) {
		t.Fatalf("want ErrOutOfWindow, got %v", err)
	}
	if w.Metrics().OrderViolations == 0 {
		t.Fatal("order violation not counted")
	}
}

func c3ids() []types.NodeID {
	return []types.NodeID{0, 1, 2}
}
