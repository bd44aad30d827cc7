package tcpnet

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Tests for the run-to-completion message path: the send rules (never
// park on the socket, per-peer FIFO; coalescing still engages under
// contention) and the dispatch
// contract (Recv untouched without a handler, nothing lost around the
// install, Recv closes after the last handler call).

// seqPayload is a sequence-numbered payload of the given size whose every
// byte depends on (sender, seq), so a torn or misordered stream cannot
// parse back to what was sent.
func seqPayload(sender, seq uint32, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint32(p[0:4], sender)
	binary.BigEndian.PutUint32(p[4:8], seq)
	for i := 8; i < size; i++ {
		p[i] = byte(seq + uint32(i))
	}
	return p
}

func checkSeqPayload(t *testing.T, p []byte, size int) (sender, seq uint32) {
	t.Helper()
	if len(p) != size {
		t.Fatalf("payload of %d bytes, want %d", len(p), size)
	}
	sender, seq = binary.BigEndian.Uint32(p[0:4]), binary.BigEndian.Uint32(p[4:8])
	for i := 8; i < size; i++ {
		if p[i] != byte(seq+uint32(i)) {
			t.Fatalf("payload (%d,%d) corrupt at byte %d", sender, seq, i)
		}
	}
	return sender, seq
}

// waitConn blocks until e holds a cached connection to peer id, so the
// next Send to it is inline-eligible.
func waitConn(t *testing.T, e *Endpoint, id types.NodeID) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		e.mu.Lock()
		ps := e.peers[id]
		up := ps != nil && ps.conn != nil
		e.mu.Unlock()
		if up {
			return
		}
	}
	t.Fatalf("no connection to peer %v", id)
}

// TestSendNeverParksOnStalledPeer is send rule three. The peer accepts and
// does not read. Once its socket buffer is full an inline write comes up
// short; Send must still return at once, sends to another peer must still
// be delivered, and when the stalled peer starts reading it must find every
// frame whole and in order — the half-written one finished by the flusher
// ahead of everything queued behind it.
func TestSendNeverParksOnStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()

	other := listenT(t, Config{ID: 2, ListenAddr: "127.0.0.1:0"})
	client := listenT(t, Config{ID: 100,
		Peers:        map[types.NodeID]string{1: ln.Addr().String(), 2: other.Addr()},
		WriteTimeout: 30 * time.Second}) // a parked Send would sit here for this long

	const size = 32 << 10
	var seq uint32
	send := func() time.Duration {
		start := time.Now()
		if err := client.Send(1, seqPayload(7, seq, size)); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		seq++
		return time.Since(start)
	}
	send() // dials, on the flusher
	waitConn(t, client, 1)
	stalled := <-accepted
	defer stalled.Close()

	// Fill the socket: send until an inline write is cut short. With one
	// sender, a payload is pending after Send returns only if it was carried.
	ps := client.peerForTest(1)
	for deadline := time.Now().Add(5 * time.Second); ps.pending.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("dialing send never settled")
		}
	}
	var slowest time.Duration
	for ps.pending.Load() == 0 {
		if seq > 4096 {
			t.Fatalf("socket buffer never filled after %d x %d bytes", seq, size)
		}
		if d := send(); d > slowest {
			slowest = d
		}
	}
	// The buffer is full and the flusher is stuck in its write. More sends
	// queue behind it; none may wait for the socket. The box this runs on
	// can park a thread for tens of milliseconds, so one late return is
	// tolerated — a Send that parked would not return before the peer reads.
	late := 0
	for i := 0; i < 40; i++ {
		if d := send(); d > 10*time.Millisecond {
			late++
			if d > slowest {
				slowest = d
			}
		}
	}
	if late > 1 || slowest > time.Second {
		t.Fatalf("Send waited on a stalled peer: %d of 40 sends over 10ms, slowest %v", late, slowest)
	}

	// Another peer is unaffected while this one is stalled.
	if err := client.Send(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-other.Recv():
		if string(m.Payload) != "hello" {
			t.Fatalf("other peer got %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send to a healthy peer stuck behind the stalled one")
	}

	// The peer wakes up: every payload, whole, in order.
	br := bufio.NewReader(stalled)
	_ = stalled.SetReadDeadline(time.Now().Add(20 * time.Second))
	var want uint32
	for want < seq {
		var header [8]byte
		if _, err := io.ReadFull(br, header[:]); err != nil {
			t.Fatalf("frame header before payload %d: %v", want, err)
		}
		body := make([]byte, binary.BigEndian.Uint32(header[0:4])-4)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("frame body before payload %d: %v", want, err)
		}
		if from := binary.BigEndian.Uint32(header[4:8]); from != 100 {
			t.Fatalf("frame from %d: stream torn", from)
		}
		members, err := wire.SplitBatch(body)
		if err != nil {
			t.Fatalf("frame before payload %d: %v", want, err)
		}
		for _, m := range members {
			if _, got := checkSeqPayload(t, m, size); got != want {
				t.Fatalf("payload %d arrived where %d was due", got, want)
			}
			want++
		}
	}
	if st := client.Stats(); st.WriteFailures != 0 || st.QueueDrops != 0 {
		t.Errorf("stall cost payloads: %+v", st)
	}
}

// peerForTest returns the state record of a peer already sent to.
func (e *Endpoint) peerForTest(id types.NodeID) *peerState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peers[id]
}

// TestPerPeerFIFO is send rule one: with 8 senders on one peer — some
// bursting, so they queue behind each other, some pausing, so they find the
// peer idle and write inline — the receiver sees each sender's payloads in
// the order they were sent.
func TestPerPeerFIFO(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	client := listenT(t, Config{ID: 100, Peers: map[types.NodeID]string{1: server.Addr()}})
	_ = client.Send(1, seqPayload(99, 0, 16))
	<-server.Recv()

	const senders, each, size = 8, 400, 64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := client.Send(1, seqPayload(uint32(s), uint32(i), size)); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
				if s%2 == 1 && i%8 == 7 {
					time.Sleep(200 * time.Microsecond) // let the peer go idle
				}
			}
		}(s)
	}
	next := make([]uint32, senders)
	timeout := time.After(20 * time.Second)
	for got := 0; got < senders*each; got++ {
		select {
		case m := <-server.Recv():
			s, seq := checkSeqPayload(t, m.Payload, size)
			if seq != next[s] {
				t.Fatalf("sender %d: payload %d arrived where %d was due", s, seq, next[s])
			}
			next[s]++
		case <-timeout:
			t.Fatalf("received %d of %d", got, senders*each)
		}
	}
	wg.Wait()
	st := client.Stats()
	if st.FramesSent != senders*each+1 || st.WriteFailures != 0 {
		t.Errorf("stats %+v", st)
	}
	// Some flush carried several payloads: senders did queue behind each other.
	if bs := client.BatchSizes(); bs.Max < 2 {
		t.Errorf("no payload was ever queued behind another (max batch %d)", bs.Max)
	}
}

// TestCoalescingUnderContention: 32 senders on one idle peer find the writer role taken, so their payloads queue and
// the flusher batches them — the inline path must not have switched
// batching off. The test holds the role itself until a full batch has
// queued: on one P the senders would otherwise never overlap, and each
// would write inline, as designed.
func TestCoalescingUnderContention(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	client := listenT(t, Config{ID: 100, Peers: map[types.NodeID]string{1: server.Addr()}})
	var handled atomic.Int64
	server.Dispatch(func(transport.Message) { handled.Add(1) })
	_ = client.Send(1, []byte("warm"))
	waitConn(t, client, 1)
	client.mu.Lock()
	ps := client.peers[1]
	client.mu.Unlock()

	const senders, each = 32, 200
	ps.wmu.Lock()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = client.Send(1, []byte("contended payload"))
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); len(ps.queue) < maxBatch; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			ps.wmu.Unlock()
			t.Fatalf("only %d payloads queued behind a held writer role", len(ps.queue))
		}
	}
	ps.wmu.Unlock()
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); handled.Load() < senders*each+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("handled %d of %d", handled.Load(), senders*each+1)
		}
	}
	if st := client.Stats(); st.Flushes >= st.FramesSent {
		t.Errorf("no coalescing under contention: %d flushes for %d payloads", st.Flushes, st.FramesSent)
	}
}

// TestDispatchTakesOverFromRecv is the dispatch contract on the receive
// side: payloads that arrive before a handler is installed come out of
// Recv, later ones go to the handler, none is lost or delivered twice.
func TestDispatchTakesOverFromRecv(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	client := listenT(t, Config{ID: 100, Peers: map[types.NodeID]string{1: server.Addr()}})
	if server.Dispatching() {
		t.Fatal("fresh endpoint claims a handler")
	}

	const n = 10
	for i := 0; i < n; i++ {
		_ = client.Send(1, []byte{byte(i)})
	}
	for deadline := time.Now().Add(5 * time.Second); server.Stats().FramesRecv < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server parsed %d of %d", server.Stats().FramesRecv, n)
		}
	}

	handled := make(chan transport.Message, n)
	server.Dispatch(func(m transport.Message) { handled <- m })
	if !server.Dispatching() {
		t.Fatal("handler not installed")
	}
	for i := n; i < 2*n; i++ {
		_ = client.Send(1, []byte{byte(i)})
	}
	for i := 0; i < 2*n; i++ {
		src, name := server.Recv(), "Recv"
		if i >= n {
			src, name = handled, "handler"
		}
		select {
		case m := <-src:
			if m.From != 100 || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
				t.Fatalf("%s delivered %v %x, want payload %d", name, m.From, m.Payload, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("payload %d never came out of %s", i, name)
		}
	}
	select {
	case m := <-server.Recv():
		t.Fatalf("Recv delivered %x after the handler took over", m.Payload)
	case m := <-handled:
		t.Fatalf("handler got an extra %x", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestCloseWaitsForHandlers: Recv must not close while a handler call is
// still running — the protocol layer treats that close as "no handler will
// run again" and tears down what handlers use.
func TestCloseWaitsForHandlers(t *testing.T) {
	server, err := Listen(Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	client := listenT(t, Config{ID: 100, Peers: map[types.NodeID]string{1: server.Addr()}})
	entered, release := make(chan struct{}), make(chan struct{})
	server.Dispatch(func(transport.Message) {
		close(entered)
		<-release
	})
	_ = client.Send(1, []byte("x"))
	<-entered

	closed := make(chan struct{})
	go func() {
		_ = server.Close()
		close(closed)
	}()
	select {
	case <-server.Recv():
		t.Fatal("Recv closed under a running handler")
	case <-closed:
		t.Fatal("Close returned under a running handler")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case _, ok := <-server.Recv():
		if ok {
			t.Fatal("unexpected message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv never closed")
	}
	<-closed
}

// TestCloseClosesUnclaimedConnections: a connection that was accepted but
// has not delivered a frame belongs to no peer record yet. Close must close
// it all the same, or it waits for that connection's reader forever — which
// is what Replica.Stop did when a client's first frame raced the stop.
func TestCloseClosesUnclaimedConnections(t *testing.T) {
	server, err := Listen(Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for deadline := time.Now().Add(5 * time.Second); server.Stats().Accepts == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("connection never accepted")
		}
	}
	closed := make(chan struct{})
	go func() {
		_ = server.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close is waiting for the reader of a connection it never closed")
	}
}

// TestBatchMembersOwnTheirBytes: the members of one batch frame reach the
// handler in allocations of their own, so a receiver that keeps a view of
// one (a replica storing a value in place) pins that member and no other,
// and whatever it does within the member's capacity leaves the rest intact.
func TestBatchMembersOwnTheirBytes(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	members := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
	handled := make(chan transport.Message, len(members))
	server.Dispatch(func(m transport.Message) { handled <- m })

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := wire.AppendBatch(nil, members)
	frame := binary.BigEndian.AppendUint32(nil, uint32(4+len(body)))
	frame = binary.BigEndian.AppendUint32(frame, 100) // sender id
	if _, err := conn.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	for range members {
		select {
		case m := <-handled:
			got = append(got, m.Payload)
		case <-time.After(5 * time.Second):
			t.Fatalf("handler got %d of %d members", len(got), len(members))
		}
	}
	for i, p := range got {
		if string(p) != string(members[i]) {
			t.Fatalf("member %d = %q, want %q", i, p, members[i])
		}
	}
	// Fill each member's whole capacity in turn: a member that shared the
	// frame's backing array would overwrite the members after it.
	for i, p := range got {
		full := p[:cap(p)]
		for j := range full {
			full[j] = 0xFF
		}
		for k := i + 1; k < len(got); k++ {
			if string(got[k]) != string(members[k]) {
				t.Fatalf("writing member %d's capacity changed member %d to %q", i, k, got[k])
			}
		}
	}
}
