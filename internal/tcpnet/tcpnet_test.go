package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

func listenT(t *testing.T, cfg Config) *Endpoint {
	t.Helper()
	e, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

func TestSendRecvBetweenTwoListeners(t *testing.T) {
	a := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	b := listenT(t, Config{ID: 2, ListenAddr: "127.0.0.1:0",
		Peers: map[types.NodeID]string{1: a.Addr()}})
	// a learns b's address too.
	a.cfg.Peers[2] = b.Addr()

	if err := a.Send(2, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		if m.From != 1 || string(m.Payload) != "ping" {
			t.Fatalf("got from=%v payload=%q", m.From, m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}

	// Reply in the other direction (b dials a).
	if err := b.Send(1, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-a.Recv():
		if m.From != 2 || string(m.Payload) != "pong" {
			t.Fatalf("got from=%v payload=%q", m.From, m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
	}
}

func TestClientOnlyEndpointGetsRepliesOverItsConnection(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	client := listenT(t, Config{ID: 100,
		Peers: map[types.NodeID]string{1: server.Addr()}})

	if err := client.Send(1, []byte("request")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-server.Recv():
		if m.From != 100 {
			t.Fatalf("server saw sender %v", m.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server got nothing")
	}

	// Server replies without any peer-table entry for the client: the
	// connection was learned from the inbound frame.
	if err := server.Send(100, []byte("response")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-client.Recv():
		if string(m.Payload) != "response" {
			t.Fatalf("client got %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client got no reply")
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	a := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	if err := a.Send(42, []byte("x")); !errors.Is(err, types.ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
}

func TestSendToDeadPeerIsLoss(t *testing.T) {
	// Dial failure must behave like message loss, not an error.
	a := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0",
		Peers:       map[types.NodeID]string{2: "127.0.0.1:1"}, // nothing listens there
		DialTimeout: 200 * time.Millisecond})
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatalf("send to dead peer errored: %v", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	a, err := Listen(Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := a.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestLargeMessage(t *testing.T) {
	a := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	b := listenT(t, Config{ID: 2, Peers: map[types.NodeID]string{1: a.Addr()}})

	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := b.Send(1, big); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-a.Recv():
		if len(m.Payload) != len(big) {
			t.Fatalf("payload size %d", len(m.Payload))
		}
		for i := 0; i < len(big); i += 4099 {
			if m.Payload[i] != big[i] {
				t.Fatalf("payload corrupted at %d", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
}

// TestABDOverTCP runs the full protocol over real sockets: 3 replicas and a
// client, write then read, plus a replica crash.
func TestABDOverTCP(t *testing.T) {
	// Start three replica endpoints.
	var eps [3]*Endpoint
	peers := make(map[types.NodeID]string)
	for i := range eps {
		eps[i] = listenT(t, Config{ID: types.NodeID(i), ListenAddr: "127.0.0.1:0"})
		peers[types.NodeID(i)] = eps[i].Addr()
	}
	var replicas [3]*core.Replica
	for i := range eps {
		replicas[i] = core.NewReplica(types.NodeID(i), eps[i])
		replicas[i].Start()
		t.Cleanup(replicas[i].Stop)
	}

	clientEp := listenT(t, Config{ID: 100, Peers: peers})
	cli, err := core.NewClient(100, clientEp, []types.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	for i := 0; i < 5; i++ {
		val := fmt.Sprintf("v%d", i)
		if err := cli.Write(ctx, "x", []byte(val)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	v, err := cli.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v4" {
		t.Fatalf("read %q", v)
	}

	// Kill replica 2's process (stop + close endpoint): a minority crash.
	replicas[2].Stop()
	if err := cli.Write(ctx, "x", []byte("after-crash")); err != nil {
		t.Fatalf("write after crash: %v", err)
	}
	v, err = cli.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "after-crash" {
		t.Fatalf("read %q", v)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	// A server restarting on the same address: the client's cached
	// connection dies; the first send after that is lost (dropping the dead
	// conn), and the next send redials successfully.
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	addr := server.Addr()

	client := listenT(t, Config{ID: 100, Peers: map[types.NodeID]string{1: addr},
		DialTimeout: time.Second})
	if err := client.Send(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-server.Recv():
	case <-time.After(5 * time.Second):
		t.Fatal("first message not delivered")
	}

	// Restart the server on the same address.
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	server2, err := Listen(Config{ID: 1, ListenAddr: addr})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = server2.Close() })

	// Sends are loss-tolerant: keep sending until one lands (the protocol's
	// retransmission plays this role in production).
	deadline := time.After(10 * time.Second)
	for {
		if err := client.Send(1, []byte("after-restart")); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-server2.Recv():
			if string(m.Payload) != "after-restart" {
				t.Fatalf("payload %q", m.Payload)
			}
			return
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("client never reconnected")
		}
	}
}

func TestConcurrentSendsShareConnection(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	client := listenT(t, Config{ID: 100, Peers: map[types.NodeID]string{1: server.Addr()}})

	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = client.Send(1, []byte{byte(i)})
		}(i)
	}
	wg.Wait()

	got := 0
	timeout := time.After(5 * time.Second)
	for got < n {
		select {
		case <-server.Recv():
			got++
		case <-timeout:
			t.Fatalf("received %d of %d", got, n)
		}
	}
}

// TestSendCoalescing pins the batching path: a burst of concurrent sends
// that finds the peer's writer role taken queues behind it and coalesces
// into fewer wire writes than payloads, and every payload still arrives
// intact and individually. The test holds the role itself until a full
// batch has queued (as TestCoalescingUnderContention does): on one P the
// senders would otherwise never overlap, and each would write inline.
func TestSendCoalescing(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	client := listenT(t, Config{ID: 100, Peers: map[types.NodeID]string{1: server.Addr()}})
	_ = client.Send(1, []byte{0xff, 0xff})
	<-server.Recv()
	waitConn(t, client, 1)
	client.mu.Lock()
	ps := client.peers[1]
	client.mu.Unlock()

	const n = 200
	ps.wmu.Lock()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A leading 1 keeps a payload from starting with
			// wire.BatchMarker (126 would be 0x7E 0x00).
			_ = client.Send(1, []byte{1, byte(i), byte(i >> 8)})
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); len(ps.queue) < maxBatch; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			ps.wmu.Unlock()
			t.Fatalf("only %d payloads queued behind a held writer role", len(ps.queue))
		}
	}
	ps.wmu.Unlock()
	wg.Wait()

	seen := make(map[int]bool, n)
	timeout := time.After(10 * time.Second)
	for len(seen) < n {
		select {
		case m := <-server.Recv():
			if len(m.Payload) != 3 || m.Payload[0] != 1 {
				t.Fatalf("payload %x", m.Payload)
			}
			seen[int(m.Payload[1])|int(m.Payload[2])<<8] = true
		case <-timeout:
			t.Fatalf("received %d of %d payloads", len(seen), n)
		}
	}
	st := client.Stats()
	if st.FramesSent != n+1 {
		t.Errorf("frames sent = %d, want %d", st.FramesSent, n+1)
	}
	if st.Flushes >= st.FramesSent {
		t.Errorf("no coalescing: %d flushes for %d payloads", st.Flushes, st.FramesSent)
	}
	bs := client.BatchSizes()
	if bs.Count != st.Flushes {
		t.Errorf("batch-size histogram count %d != flushes %d", bs.Count, st.Flushes)
	}
	if max := bs.Max; max < 2 {
		t.Errorf("max batch size %d, want >= 2", max)
	}
	// The sender records a batch's flush latencies only after its conn.Write
	// returns, by which time the receiver may already have drained all
	// payloads: wait (bounded) for the last batch's bookkeeping.
	fl := client.FlushLatency()
	for deadline := time.Now().Add(5 * time.Second); fl.Count < n+1 && time.Now().Before(deadline); fl = client.FlushLatency() {
		time.Sleep(time.Millisecond)
	}
	if fl.Count != n+1 {
		t.Errorf("flush-latency histogram count %d, want %d", fl.Count, n+1)
	}
	if rs := server.Stats(); rs.FramesRecv != n+1 {
		t.Errorf("receiver frames = %d, want %d", rs.FramesRecv, n+1)
	}
}

// TestWriteDeadlineUnblocksStalledPeer is the regression test for the
// per-send write deadline: a peer that accepts the connection but never
// reads eventually fills the TCP buffer, and without a deadline Send would
// block forever.
func TestWriteDeadlineUnblocksStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept and hold the connection open without ever reading from it.
	stall := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			stall <- c
		}
	}()
	t.Cleanup(func() {
		close(stall)
		for c := range stall {
			_ = c.Close()
		}
	})

	client := listenT(t, Config{ID: 100,
		Peers:        map[types.NodeID]string{1: ln.Addr().String()},
		WriteTimeout: 100 * time.Millisecond})

	big := make([]byte, 4<<20) // larger than any default socket buffer
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := client.Send(1, big); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sends against stalled peer took %v", elapsed)
	}
	// Send queues; the flusher hits the deadline asynchronously.
	deadline := time.After(10 * time.Second)
	for client.Stats().WriteTimeouts == 0 {
		select {
		case <-deadline:
			t.Fatalf("no write timeouts recorded: %+v", client.Stats())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestBackoffLifecycle: against a dead peer, dials are paced by the
// backoff windows and the sends in between read as suppressed loss; once
// the peer is back, delivery resumes on one live connection and nothing
// more is suppressed.
func TestBackoffLifecycle(t *testing.T) {
	// Reserve an address with nothing behind it yet.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	const backoffMin, backoffMax = 5 * time.Millisecond, 20 * time.Millisecond
	client := listenT(t, Config{ID: 100,
		Peers:       map[types.NodeID]string{1: addr},
		DialTimeout: 200 * time.Millisecond,
		BackoffMin:  backoffMin,
		BackoffMax:  backoffMax})

	// Send to the dead peer far faster than any backoff window.
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		if err := client.Send(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	st := client.Stats()
	if st.DialFailures == 0 || st.SuppressedSends == 0 {
		t.Fatalf("dead peer: want dial failures and suppressed sends, got %+v", st)
	}
	// Every failure but the last opens a window of at least 3/4 of its
	// backoff (BackoffMin doubling up to BackoffMax), and no dial starts
	// inside one.
	maxDials := int64(1)
	for b, spent := backoffMin, time.Duration(0); ; maxDials++ {
		spent += b * 3 / 4
		if spent > elapsed {
			break
		}
		b = min(2*b, backoffMax)
	}
	if st.DialFailures > maxDials {
		t.Errorf("%d dial failures in %v, the backoff windows admit at most %d", st.DialFailures, elapsed, maxDials)
	}

	// Bring the peer up on the reserved address: the first dial after the
	// current window connects and delivery resumes.
	server, err := Listen(Config{ID: 1, ListenAddr: addr})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = server.Close() })
	deadline := time.After(10 * time.Second)
	for delivered := false; !delivered; {
		if err := client.Send(1, []byte("revived")); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-server.Recv():
			if m.From != 100 {
				t.Fatalf("server saw sender %v", m.From)
			}
			delivered = true
		case <-time.After(5 * time.Millisecond):
		case <-deadline:
			t.Fatalf("no delivery after the peer came back: %+v", client.Stats())
		}
	}
	st = client.Stats()
	if st.ConnsActive != 1 {
		t.Fatalf("revived peer: %d active connections, want 1 (%+v)", st.ConnsActive, st)
	}

	// With a live connection nothing is suppressed: every later send lands.
	const later = 20
	for i := 0; i < later; i++ {
		if err := client.Send(1, []byte("after")); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < later; {
		select {
		case m := <-server.Recv():
			if string(m.Payload) == "after" {
				got++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d sends delivered after revival: %+v", got, later, client.Stats())
		}
	}
	if now := client.Stats(); now.SuppressedSends != st.SuppressedSends || now.DialFailures != st.DialFailures {
		t.Errorf("suppression continued on a live connection: %+v, then %+v", st, now)
	}
}

// TestResetPeerKillsConnection covers the chaos hook: ResetPeer drops the
// cached connection but starts no backoff, so the next send redials
// immediately.
func TestResetPeerKillsConnection(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	client := listenT(t, Config{ID: 100, Peers: map[types.NodeID]string{1: server.Addr()}})

	if err := client.Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-server.Recv():
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	if !client.ResetPeer(1) {
		t.Fatal("ResetPeer found no connection")
	}
	if client.ResetPeer(1) {
		t.Fatal("second ResetPeer found a connection")
	}
	st := client.Stats()
	if st.Resets != 1 || st.ConnsActive != 0 {
		t.Fatalf("after reset: %+v", st)
	}

	// Next send redials (no backoff: resets aren't failures).
	deadline := time.After(10 * time.Second)
	for {
		if err := client.Send(1, []byte("b")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-server.Recv():
			if st := client.Stats(); st.SuppressedSends != 0 {
				t.Errorf("reset triggered backoff suppression: %+v", st)
			}
			return
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("never reconnected after reset")
		}
	}
}

func TestEndpointStats(t *testing.T) {
	a := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	b := listenT(t, Config{ID: 2, ListenAddr: "127.0.0.1:0",
		Peers: map[types.NodeID]string{1: a.Addr()}})

	payload := []byte("ping-pong")
	if err := b.Send(1, payload); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.Recv():
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}

	bs := b.Stats()
	if bs.FramesSent != 1 || bs.BytesSent != int64(8+len(payload)) {
		t.Errorf("sender stats: %+v", bs)
	}
	if bs.Dials != 1 || bs.DialFailures != 0 {
		t.Errorf("sender dials: %+v", bs)
	}
	if bs.ConnsActive != 1 {
		t.Errorf("sender conns = %d, want 1", bs.ConnsActive)
	}
	as := a.Stats()
	if as.FramesRecv != 1 || as.BytesRecv != int64(8+len(payload)) {
		t.Errorf("receiver stats: %+v", as)
	}
	if as.Accepts != 1 {
		t.Errorf("receiver accepts = %d, want 1", as.Accepts)
	}

	if bs.Flushes == 0 || bs.Flushes > bs.FramesSent {
		t.Errorf("flushes = %d with %d frames sent", bs.Flushes, bs.FramesSent)
	}

	// A dial to a dead address is a counted failure and message loss. The
	// flusher dials asynchronously, so poll for the counter.
	b.cfg.Peers[9] = "127.0.0.1:1"
	if err := b.Send(9, []byte("x")); err != nil {
		t.Fatalf("dial failure must read as loss, got %v", err)
	}
	deadline := time.After(10 * time.Second)
	for b.Stats().DialFailures != 1 {
		select {
		case <-deadline:
			t.Fatalf("dial failures = %d, want 1", b.Stats().DialFailures)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, order, err := ParsePeers("2=host2:7002, 0=host0:7000,1=host1:7001")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 {
		t.Fatalf("peers: %v", peers)
	}
	if peers[0] != "host0:7000" || peers[2] != "host2:7002" {
		t.Fatalf("addresses: %v", peers)
	}
	// Quorum indexing order must be ascending by id regardless of input
	// order, so every client agrees on replica indexes.
	want := []types.NodeID{0, 1, 2}
	for i, id := range order {
		if id != want[i] {
			t.Fatalf("order: %v", order)
		}
	}
}

func TestParsePeersErrors(t *testing.T) {
	bad := []string{
		"",
		"  ",
		"0:addr",  // wrong separator
		"x=addr",  // non-numeric id
		"0=a,0=b", // duplicate id
	}
	for _, s := range bad {
		if _, _, err := ParsePeers(s); err == nil {
			t.Errorf("ParsePeers(%q) accepted", s)
		}
	}
}
