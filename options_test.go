package abd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

func TestClusterWithDropsAndRetransmit(t *testing.T) {
	cluster, err := NewCluster(3,
		WithSeed(100),
		WithDropProbability(0.25),
		WithClientDefaults(core.WithRetransmit(5*time.Millisecond, 5*time.Millisecond)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	cli := cluster.Client()

	for i := 0; i < 20; i++ {
		if err := cli.Write(ctx, "x", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("write %d under 25%% loss: %v", i, err)
		}
	}
	v, err := cli.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v19" {
		t.Fatalf("read %q", v)
	}
	if cli.Metrics().Retransmits == 0 {
		t.Fatal("no retransmissions under 25% loss")
	}
}

func TestClusterClientOptionsOverrideDefaults(t *testing.T) {
	cluster, err := NewCluster(3,
		WithSeed(101),
		WithClientDefaults(WithReadMode(ReadTwoPhase)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	w := cluster.Client(WithSingleWriter())
	if err := w.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)

	read5 := func(r *Client) core.MetricsSnapshot {
		t.Helper()
		for i := 0; i < 5; i++ {
			if _, err := r.Read(ctx, "x"); err != nil {
				t.Fatal(err)
			}
		}
		return r.Metrics()
	}
	// A default client inherits the two-phase read: every read writes back.
	if m := read5(cluster.Client()); m.WriteBacks != 5 || m.FastPathReads != 0 {
		t.Fatalf("cluster default not applied: %+v", m)
	}
	// A per-client option overrides the cluster default: quiescent reads are
	// one round again.
	if m := read5(cluster.Client(WithReadMode(ReadAtomic))); m.FastPathReads != 5 || m.WriteBacks != 0 {
		t.Fatalf("client option did not override the cluster default: %+v", m)
	}
}

func TestClusterStressManyRegistersManyClients(t *testing.T) {
	cluster, err := NewCluster(5, WithSeed(102), WithDelays(0, 300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	const clients, regs, opsPer = 6, 10, 10
	done := make(chan error, clients)
	for c := 0; c < clients; c++ {
		cli := cluster.Client()
		go func(c int, cli *Client) {
			for i := 0; i < opsPer; i++ {
				reg := fmt.Sprintf("reg/%d", (c+i)%regs)
				if err := cli.Write(ctx, reg, []byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
					done <- err
					return
				}
				if _, err := cli.Read(ctx, reg); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(c, cli)
	}
	for c := 0; c < clients; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
