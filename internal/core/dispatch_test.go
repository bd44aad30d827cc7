package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcpnet"
	"repro/internal/timestamp"
	"repro/internal/types"
)

// Tests of the replica and the client on real tcpnet, where messages are
// dispatched on the connection readers (transport.Dispatcher) rather than
// pulled off Recv by one loop: shutdown while handlers run, and what a
// blocked handler does and does not hold up.

// tcpReplica starts a persistent replica 0 on a loopback tcpnet endpoint.
func tcpReplica(t *testing.T, wal string, opts ...ReplicaOption) (*Replica, *tcpnet.Endpoint) {
	t.Helper()
	ep, err := tcpnet.Listen(tcpnet.Config{ID: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewPersistentReplica(0, ep, wal, opts...)
	if err != nil {
		_ = ep.Close()
		t.Fatal(err)
	}
	r.Start()
	if !ep.Dispatching() {
		t.Fatal("replica on tcpnet did not install its dispatch handler")
	}
	t.Cleanup(r.Stop)
	return r, ep
}

// tcpClientEndpoint opens a client-only endpoint (one connection of its
// own) to the replica at addr.
func tcpClientEndpoint(t *testing.T, id types.NodeID, addr string) *tcpnet.Endpoint {
	t.Helper()
	ep, err := tcpnet.Listen(tcpnet.Config{ID: id, Peers: map[types.NodeID]string{0: addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	return ep
}

func tcpClient(t *testing.T, id types.NodeID, addr string) *Client {
	t.Helper()
	ep := tcpClientEndpoint(t, id, addr)
	cli, err := NewClient(id, ep, []types.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if !ep.Dispatching() {
		t.Fatal("client on tcpnet did not install its dispatch handler")
	}
	t.Cleanup(cli.Close)
	return cli
}

// TestReplicaStopWhileConnectionsWrite stops a replica while four client
// connections are feeding it updates. The connection readers send into the
// group-commit channel that Stop closes: the close must wait for them (a
// send on a closed channel would panic the process), and every write that
// was acknowledged must be in the log when it is reopened.
func TestReplicaStopWhileConnectionsWrite(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "stop.wal")
	r, ep := tcpReplica(t, wal)

	const conns, perConn = 4, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var acked [conns * perConn]atomic.Int64 // highest acknowledged value per register
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cli := tcpClient(t, types.NodeID(100+c), ep.Addr())
		for w := 0; w < perConn; w++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				reg := fmt.Sprintf("r%d", slot)
				for v := int64(1); ctx.Err() == nil; v++ {
					if cli.Write(ctx, reg, []byte(fmt.Sprint(v))) != nil {
						return
					}
					acked[slot].Store(v)
				}
			}(c*perConn + w)
		}
	}
	waitFor(t, func() bool { return r.ReplicaMetrics().Updates > 200 })
	r.Stop()
	cancel()
	wg.Wait()

	reopened, err := NewPersistentReplica(0, netsim.New(netsim.Config{Seed: 1}).Node(0), wal)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Stop()
	for slot := range acked {
		want := acked[slot].Load()
		_, val := reopened.State(fmt.Sprintf("r%d", slot))
		var got int64
		_, _ = fmt.Sscan(string(val), &got)
		if got < want {
			t.Errorf("register r%d: write %d was acknowledged, log holds %d", slot, want, got)
		}
	}
}

// TestStalledDiskDoesNotBlockOtherConnections: the disk stalls, one
// connection keeps pushing updates until the group-commit channel is full
// and its reader blocks in dispatch — and a query arriving on a different
// connection is still answered, because each connection dispatches on its
// own reader. With one accept loop in front of every connection it was not.
func TestStalledDiskDoesNotBlockOtherConnections(t *testing.T) {
	r, ep := tcpReplica(t, filepath.Join(t.TempDir(), "stall.wal"))
	reader := tcpClient(t, 100, ep.Addr())
	ctx := shortCtx(t)
	mustWrite(t, ctx, reader, "x", "v")

	r.persist.mu.Lock() // the disk stalls
	unstall := sync.OnceFunc(r.persist.mu.Unlock)
	defer unstall()

	// One batch sits in the stalled commit, the channel fills behind it, and
	// the next update blocks the writer connection's reader.
	writer := tcpClientEndpoint(t, 101, ep.Addr())
	flood := cap(r.writeCh) + batchMax + 8
	for i := 1; i <= flood; i++ {
		m := message{Kind: KindWrite, Op: uint64(i), Reg: "w", Val: []byte("flood"),
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: int64(i), Writer: 101}}}
		if err := writer.Send(0, m.encode()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(r.writeCh) == cap(r.writeCh) })

	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if v, err := reader.Read(rctx, "x"); err != nil || string(v) != "v" {
		t.Errorf("read on another connection while the disk is stalled: %q, %v", v, err)
	}

	unstall()
	waitFor(t, func() bool { return r.ReplicaMetrics().Updates >= int64(flood) })
}

// TestClientCloseFailsInFlightPhases closes a dispatching client while its
// phases wait on a replica that never answers: every operation fails with
// ErrClosed and no goroutine of the client or of either endpoint is left.
func TestClientCloseFailsInFlightPhases(t *testing.T) {
	before := runtime.NumGoroutine()
	silent, err := tcpnet.Listen(tcpnet.Config{ID: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	cli := tcpClient(t, 100, silent.Addr())
	const ops = 16
	errs := make(chan error, ops)
	for i := 0; i < ops; i++ {
		go func(i int) {
			_, err := cli.Read(context.Background(), fmt.Sprintf("r%d", i))
			errs <- err
		}(i)
	}
	waitFor(t, func() bool { return cli.Metrics().Phases == ops })
	cli.Close()
	for i := 0; i < ops; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, types.ErrClosed) {
				t.Errorf("in-flight read failed with %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d reads still blocked after Close", ops-i, ops)
		}
	}
	_ = silent.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}
