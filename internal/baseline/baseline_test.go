package baseline

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/types"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// newCentral starts a central server as node 0 on a fresh net; client
// builds a client of it, closed with the server at cleanup.
func newCentral(t *testing.T, seed int64) (net *netsim.Net, client func(types.NodeID) *core.Client) {
	t.Helper()
	net = netsim.New(netsim.Config{Seed: seed})
	srv := core.NewReplica(0, net.Node(0))
	srv.Start()
	var clients []*core.Client
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
		srv.Stop()
		net.Close()
	})
	return net, func(id types.NodeID) *core.Client {
		t.Helper()
		cli, err := NewCentral(id, net.Node(id), 0)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cli)
		return cli
	}
}

func TestCentralReadWrite(t *testing.T) {
	_, client := newCentral(t, 1)
	cli := client(100)
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
	_, client := newCentral(t, 2)
	a, b := client(100), client(101)
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
	net, client := newCentral(t, 6)
	cli := client(100)
	ctx := ctxT(t)

	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"write", func() error { return cli.Write(ctx, "x", []byte("v")) }},
		{"read", func() error { _, err := cli.Read(ctx, "x"); return err }},
	} {
		net.ResetStats()
		if err := op.run(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if st := net.Stats(); st.Sent != 2 {
			t.Errorf("central %s sent %d messages, want 2", op.name, st.Sent)
		}
	}
}

func TestCentralSingleCrashKillsEverything(t *testing.T) {
	// The baseline's defining weakness: no fault tolerance at all.
	net, client := newCentral(t, 3)
	cli := client(100)

	if err := cli.Write(ctxT(t), "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	net.Crash(0)

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

func newROWACluster(t *testing.T, n int) (*netsim.Net, []*core.Replica, []types.NodeID) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 4})
	var replicas []*core.Replica
	var ids []types.NodeID
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		r := core.NewReplica(id, net.Node(id))
		r.Start()
		replicas = append(replicas, r)
		ids = append(ids, id)
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			r.Stop()
		}
		net.Close()
	})
	return net, replicas, ids
}

func TestROWAReadWrite(t *testing.T) {
	net, _, ids := newROWACluster(t, 3)
	_ = net
	cli, err := NewROWAClient(100, net.Node(100), ids)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
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
	net, _, ids := newROWACluster(t, 5)
	cli, err := NewROWAClient(100, net.Node(100), ids)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := ctxT(t)

	if err := cli.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	net.ResetStats()
	if _, err := cli.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	// Read-one: exactly 1 query + 1 reply, regardless of group size.
	time.Sleep(10 * time.Millisecond)
	st := net.Stats()
	if st.Sent != 2 {
		t.Fatalf("ROWA read sent %d messages, want 2", st.Sent)
	}
}

func TestROWAWriteBlocksAfterOneCrash(t *testing.T) {
	net, _, ids := newROWACluster(t, 5)
	cli, err := NewROWAClient(100, net.Node(100), ids)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Write(ctxT(t), "x", []byte("before")); err != nil {
		t.Fatal(err)
	}
	net.Crash(3)

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
	_, client := newCentral(t, 5)
	cli := client(100)
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
