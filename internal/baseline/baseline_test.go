package baseline

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	abd "repro"
	"repro/internal/types"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// newCluster starts n replicas on a fresh simulated network, closed at
// cleanup.
func newCluster(t *testing.T, n int, seed int64) *abd.Cluster {
	t.Helper()
	c, err := abd.NewCluster(n, abd.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestCentralReadWrite(t *testing.T) {
	cli := newCluster(t, 1, 1).Client(Central()...)
	ctx := ctxT(t)

	if err := cli.Write(ctx, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v1" {
		t.Fatalf("read %q", v)
	}
	// Initial state of another register.
	v, err = cli.Read(ctx, "y")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("initial read %v, want nil", v)
	}
}

func TestCentralTwoClients(t *testing.T) {
	c := newCluster(t, 1, 2)
	a, b := c.Client(Central()...), c.Client(Central()...)
	ctx := ctxT(t)

	if err := a.Write(ctx, "x", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "from-a" {
		t.Fatalf("read %q", v)
	}
}

// TestCentralOpsUseTwoMessages: a central read and a central write each
// cost one request and one reply, the unreplicated server's price.
func TestCentralOpsUseTwoMessages(t *testing.T) {
	c := newCluster(t, 1, 6)
	cli := c.Client(Central()...)
	ctx := ctxT(t)

	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"write", func() error { return cli.Write(ctx, "x", []byte("v")) }},
		{"read", func() error { _, err := cli.Read(ctx, "x"); return err }},
	} {
		c.ResetNetStats()
		if err := op.run(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if st := c.NetStats(); st.Sent != 2 {
			t.Errorf("central %s sent %d messages, want 2", op.name, st.Sent)
		}
	}
}

func TestCentralSingleCrashKillsEverything(t *testing.T) {
	// The baseline's defining weakness: no fault tolerance at all.
	c := newCluster(t, 1, 3)
	cli := c.Client(Central()...)

	if err := cli.Write(ctxT(t), "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Crash(0)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := cli.Read(ctx, "x"); err == nil {
		t.Fatal("read succeeded with the server crashed")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel2()
	if err := cli.Write(ctx2, "x", []byte("v2")); err == nil {
		t.Fatal("write succeeded with the server crashed")
	}
}

func TestROWAReadWrite(t *testing.T) {
	cli := newCluster(t, 3, 4).Client(ROWA(3)...)
	ctx := ctxT(t)

	if err := cli.Write(ctx, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // round-robin over all replicas
		v, err := cli.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "v1" {
			t.Fatalf("read %d: %q", i, v)
		}
	}
}

func TestROWAReadUsesTwoMessages(t *testing.T) {
	c := newCluster(t, 5, 4)
	cli := c.Client(ROWA(5)...)
	ctx := ctxT(t)

	if err := cli.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.ResetNetStats()
	if _, err := cli.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	// Read-one: exactly 1 query + 1 reply, regardless of group size.
	time.Sleep(10 * time.Millisecond)
	st := c.NetStats()
	if st.Sent != 2 {
		t.Fatalf("ROWA read sent %d messages, want 2", st.Sent)
	}
}

func TestROWAWriteBlocksAfterOneCrash(t *testing.T) {
	c := newCluster(t, 5, 4)
	cli := c.Client(ROWA(5)...)

	if err := cli.Write(ctxT(t), "x", []byte("before")); err != nil {
		t.Fatal(err)
	}
	c.Crash(3)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := cli.Write(ctx, "x", []byte("after")); !errors.Is(err, types.ErrNoQuorum) {
		t.Fatalf("ROWA write with a crashed replica: want ErrNoQuorum, got %v", err)
	}

	// Reads keep working: the write's retransmit ticks marked the crashed
	// replica silent, so every read asks a live one.
	for i := 0; i < 10; i++ {
		rctx, rcancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		_, err := cli.Read(rctx, "x")
		rcancel()
		if err != nil {
			t.Fatalf("ROWA read %d with one replica crashed: %v", i, err)
		}
	}
}

func TestCentralManyRegisters(t *testing.T) {
	cli := newCluster(t, 1, 5).Client(Central()...)
	ctx := ctxT(t)

	for i := 0; i < 20; i++ {
		reg := fmt.Sprintf("r%d", i)
		if err := cli.Write(ctx, reg, []byte(reg)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		reg := fmt.Sprintf("r%d", i)
		v, err := cli.Read(ctx, reg)
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != reg {
			t.Fatalf("reg %s: %q", reg, v)
		}
	}
}
