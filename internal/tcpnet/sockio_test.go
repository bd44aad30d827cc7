package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// Tests for the socket I/O under the reader: frames that arrive in pieces,
// a peer that goes away mid-frame, and Close while every reader is parked
// on the poller. A flusher write that meets a full socket buffer is
// TestSendNeverParksOnStalledPeer (finished once the peer reads) and
// TestWriteDeadlineUnblocksStalledPeer (cut off by WriteTimeout).

// frameBytes is one classic frame: header, sender id, payload.
func frameBytes(from uint32, payload []byte) []byte {
	f := binary.BigEndian.AppendUint32(nil, uint32(4+len(payload)))
	f = binary.BigEndian.AppendUint32(f, from)
	return append(f, payload...)
}

// readers counts the goroutines running an endpoint's connection reader.
func readers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "tcpnet.(*Endpoint).readLoop(")
}

// TestFrameDribbledByteByByte: a frame that arrives one byte per segment,
// with pauses between them, parks the reader between bytes and is still
// reassembled into one payload, delivered once.
func TestFrameDribbledByteByByte(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	handled := make(chan transport.Message, 4)
	server.Dispatch(func(m transport.Message) { handled <- m })

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetNoDelay(true)
	payload := []byte("one byte at a time")
	for _, b := range frameBytes(100, payload) {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case m := <-handled:
		if m.From != 100 || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("delivered %v %q, want 100 %q", m.From, m.Payload, payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dribbled frame never delivered")
	}
	select {
	case m := <-handled:
		t.Fatalf("delivered twice: %q", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
	if st := server.Stats(); st.FramesRecv != 1 || st.BytesRecv != int64(8+len(payload)) {
		t.Fatalf("frames %d, bytes %d; want 1 and %d", st.FramesRecv, st.BytesRecv, 8+len(payload))
	}
}

// TestPeerClosingMidFrameEndsReader: a peer that sends a whole frame, then
// part of another, then closes, gets the whole frame delivered; the torn
// one ends the reader, and the connection leaves both the endpoint's
// connection set and the peer's record.
func TestPeerClosingMidFrameEndsReader(t *testing.T) {
	server := listenT(t, Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	handled := make(chan transport.Message, 4)
	server.Dispatch(func(m transport.Message) { handled <- m })

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frameBytes(100, []byte("whole"))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("whole frame never delivered")
	}
	torn := frameBytes(100, bytes.Repeat([]byte{1}, 64))
	if _, err := conn.Write(torn[:20]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the reader park mid-frame
	_ = conn.Close()

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		server.mu.Lock()
		open, ps := len(server.conns), server.peers[100]
		held := ps != nil && ps.conn != nil
		server.mu.Unlock()
		if open == 0 && !held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the peer closed: %d connections open, peer record holds one: %v", open, held)
		}
	}
	select {
	case m := <-handled:
		t.Fatalf("torn frame delivered: %x", m.Payload)
	default:
	}
	if got := server.Stats().FramesRecv; got != 1 {
		t.Fatalf("frames received %d, want 1", got)
	}
}

// TestCloseWithParkedReaders: Close returns promptly while every reader —
// on accepted connections, claimed by a peer or not, and on a dialed one —
// is parked waiting for bytes, and leaves no reader goroutine behind.
func TestCloseWithParkedReaders(t *testing.T) {
	before := readers()
	peer := listenT(t, Config{ID: 2, ListenAddr: "127.0.0.1:0"})
	server, err := Listen(Config{ID: 1, ListenAddr: "127.0.0.1:0", Peers: map[types.NodeID]string{2: peer.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Send(2, []byte("dial")); err != nil { // a dialed connection
		t.Fatal(err)
	}
	<-peer.Recv()
	for i := 0; i < 3; i++ { // accepted: one claimed by a frame, two silent
		conn, err := net.Dial("tcp", server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if i == 0 {
			if _, err := conn.Write(frameBytes(100, []byte("hi"))); err != nil {
				t.Fatal(err)
			}
			<-server.Recv()
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		server.mu.Lock()
		open := len(server.conns)
		server.mu.Unlock()
		if open == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 connections have a reader", open)
		}
	}
	time.Sleep(10 * time.Millisecond) // every reader parks on the poller

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		_ = server.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waits on parked readers")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v", d)
	}
	// The peer's reader of the dialed connection ends too, on EOF.
	for deadline := time.Now().Add(5 * time.Second); readers() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d reader goroutines left, want at most %d", readers(), before)
		}
	}
}
