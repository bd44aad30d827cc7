// Package tcpnet implements the transport.Endpoint interface over real TCP
// sockets, so the same replica and client code that runs on the simulator
// deploys as an actual distributed system (cmd/abd-node, cmd/abd-cli).
//
// Framing: every frame is [4-byte big-endian length][4-byte big-endian
// sender id][payload], where the payload is either one sealed protocol
// envelope or a wire batch frame holding several (wire.AppendBatch) — the
// receive path feeds both through wire.SplitBatch, so a lone envelope
// decodes byte-identically to the pre-batch format. Connections are created
// lazily on first send and reused; an endpoint also answers over
// connections it accepted, so pure clients need no listener — replicas
// learn the client's connection from the frame's sender id and reply on it.
//
// Send is fire-and-forget like the model's channels: transport errors
// surface as message loss (and a dropped cached connection), not as
// operation failures — the protocol's quorum logic already tolerates loss
// of a minority of its messages.
//
// The message path runs to completion on the goroutine that already holds
// the message, in both directions; queues and their goroutines are the
// fallback for when that goroutine would have to wait.
//
// Inbound: each connection has one reader goroutine. Once a handler is
// installed (Dispatch, transport.Dispatcher) the reader calls it for every
// payload it parses — read, decode, handle, reply, back to read, with no
// hand-off — so handlers run concurrently, one per connection. Without a
// handler, payloads go to the mailbox behind Recv, as do any that arrived
// before the handler was installed.
//
// Every delivered payload is its own allocation, which the receiver owns
// and may keep views of (DESIGN.md §6): a batch frame's members are copied
// out of it.
//
// Outbound: each peer has one writer role, held by whoever is writing to
// its connection. Send takes it and writes its one payload itself when the
// peer is idle: a live cached connection, nothing queued or in flight ahead
// of it, and nobody writing. Otherwise Send enqueues onto the bounded
// per-peer queue (sendQueueLen) and the peer's flusher goroutine, which
// takes the same role per batch, coalesces everything pending into a single
// buffered write (up to maxBatch payloads or ~1 MiB per flush). So an idle
// peer costs no goroutine hand-off, and batching engages exactly when
// senders contend: under load, syscalls and frame headers amortize across
// the batch. Dialing and the backoff check never leave the flusher. Three
// rules hold on both routes: a payload is never written ahead of one
// enqueued before it for the same peer; a frame is never torn (a partial
// frame is completed or the connection dropped); and a caller never parks
// on the socket — the inline attempt is a single non-blocking write, and
// whatever it could not push is handed to the flusher, which finishes it
// under WriteTimeout before anything else goes out. A full queue applies
// backpressure: Send blocks up to the write timeout, then counts the
// payload as loss (QueueDrops).
//
// Socket I/O: every read and write on a connection — the reader's buffer
// fills, the inline write, the flusher's write — is a read(2) or write(2)
// on the non-blocking descriptor inside a syscall.RawConn callback
// (sockio_unix.go), and on Linux a raw syscall (rawsys_linux.go). The
// callback returns false on EAGAIN, so a goroutine parks on the poller
// exactly when net.Conn would park it, and only then; the flusher's write
// waits under WriteTimeout. The reason is the runtime's sysmon thread:
// net.Conn's calls enter the scheduler's syscall state, and a replica idles
// between requests long enough for sysmon to fall into deep sleep, so each
// such call woke it (a futex), after which it polled every 20 µs until it
// slept again. Measured on read-heavy before the change, each node's sysmon
// made ~19 000 context switches per 5 s and used ~22% of the node's CPU.
// A raw syscall is sound here only because it cannot block. Frames are
// parsed and handlers run outside the callback: a handler whose reply
// write fails closes its own connection, and Close waits for the
// descriptor's callbacks to return. Dial and accept keep ordinary syscalls
// (they are rare). The WAL's commits (internal/core) stay out of the
// syscall state too on 64-bit Linux: a raw pwrite, and a sync submitted
// asynchronously and waited for on the poller, as a socket read is.
//
// Self-healing: every flusher write carries a deadline (WriteTimeout), so a
// stalled peer with a full TCP buffer can never wedge the flusher; failed
// peers are redialed with exponential backoff plus jitter instead of
// dial-per-send hammering. A failed dial or write doubles the peer's
// backoff window (BackoffMin up to BackoffMax); until the window elapses,
// a send that would have to dial reads as loss without touching the
// network, and the first send after it dials again. A successful write,
// or a connection accepted from the peer, clears the backoff. The
// transport never judges a peer down: the protocol's quorum phases and
// retransmission decide what loss means. Dial failures and suppressed
// sends are visible in Stats and, via cmd/abd-node, in /metrics.
package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// maxFrameSize bounds a single frame (16 MiB), protecting against corrupt
// length prefixes.
const maxFrameSize = 16 << 20

// readBufSize is each connection reader's buffer: one read(2) takes in as
// many frames as have arrived, up to this many bytes.
const readBufSize = 64 << 10

// sendQueueLen is the capacity of each peer's send queue. When the queue
// is full, Send blocks up to WriteTimeout (backpressure) and then counts
// the payload as loss.
const sendQueueLen = 256

// maxBatch is the most payloads one flush coalesces into a single write.
const maxBatch = 64

// flushByteBudget caps the payload bytes coalesced into one flush, keeping
// batch frames far below maxFrameSize and bounding flusher memory. A single
// oversized payload still goes out alone, as before.
const flushByteBudget = 1 << 20

// Config describes one endpoint.
type Config struct {
	// ID is this node's identifier; it is stamped on every outbound frame.
	ID types.NodeID
	// ListenAddr is the TCP address to accept peers on. Empty means
	// client-only: the endpoint can dial out and receive replies on the
	// connections it opened, but accepts nothing.
	ListenAddr string
	// Peers maps node ids to dialable addresses. Only ids that must be
	// dialed need entries; peers that connect to us are learned.
	Peers map[types.NodeID]string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds each flush write (default 3s; negative
	// disables). A write that misses the deadline counts as a write
	// failure: the flushed payloads are lost and the connection dropped —
	// the protocol's retransmission recovers, while an unbounded write
	// against a stalled peer would block the peer's flusher forever. The
	// same duration bounds how long a Send blocks on a full queue before
	// reading as loss.
	WriteTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential redial backoff after a
	// peer failure (defaults 50ms and 5s). While a peer is backing off,
	// sends that would have to dial are counted as suppressed and read as
	// loss, so a dead peer costs one dial per backoff window rather than
	// one per send.
	BackoffMin, BackoffMax time.Duration
	// Tracer, when non-nil, receives a "net-send" span for every outbound
	// payload carrying a trace context (enqueue→write, Err set when the
	// send read as loss) and a "net-recv" span for every such inbound
	// payload (frame read→dispatch). Untraced payloads emit nothing; the
	// trace context is read from the payload's envelope trailer
	// (wire.PeekTrace) without decoding the protocol message.
	Tracer obs.Tracer
}

// ParsePeers parses a peer table written "0=host:port,1=host:port" into
// Config.Peers form, plus the ids in ascending order: the replica order
// (and therefore quorum indexing) every client of the group agrees on.
func ParsePeers(s string) (map[types.NodeID]string, []types.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil, fmt.Errorf("empty peer list (want id=host:port,...)")
	}
	peers := make(map[types.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		idS, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(idS)
		if err != nil {
			return nil, nil, fmt.Errorf("bad peer id %q: %w", idS, err)
		}
		if _, dup := peers[types.NodeID(id)]; dup {
			return nil, nil, fmt.Errorf("duplicate peer id %d", id)
		}
		peers[types.NodeID(id)] = addr
	}
	order := make([]types.NodeID, 0, len(peers))
	for id := range peers {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return peers, order, nil
}

// sendReq is one queued payload: the bytes, the enqueue time (flush-latency
// histogram), and the span-emit hook (no-op when untraced).
type sendReq struct {
	payload []byte
	at      time.Time
	emit    func(errStr string)
}

// rawConn is a TCP connection together with its descriptor handle, fetched
// once when the connection is made: SyscallConn allocates, and an inline
// write (tryWrite) would otherwise pay that on every send.
type rawConn struct {
	net.Conn
	raw syscall.RawConn
}

func withRaw(c net.Conn) net.Conn {
	raw, _ := c.(*net.TCPConn).SyscallConn() // fails only on an invalid conn; ours was just dialed or accepted as "tcp"
	return &rawConn{Conn: c, raw: raw}
}

// carry is the unwritten tail of a frame whose inline write came up short:
// frame (*buf)[off:] of req still has to go out on conn, ahead of anything
// else for the peer.
type carry struct {
	conn net.Conn
	buf  *[]byte // from framePool
	off  int
	req  sendReq
}

// peerState is the per-peer send queue plus connection cache and
// backoff state. conn, backoff and nextTry are guarded by the endpoint
// mutex. wmu is the peer's writer role: whoever holds it — an inline Send
// or the peer's one flusher goroutine — is the only writer on the
// connection.
type peerState struct {
	id    types.NodeID
	queue chan sendReq

	wmu sync.Mutex
	// pending counts payloads accepted by Send that the flusher has yet to
	// write (queued, in its batch, or carried). While it is nonzero no Send
	// may write inline, which is what keeps per-peer FIFO.
	pending atomic.Int32
	// carried, guarded by wmu, is set by an inline Send that could not push
	// its whole frame; kick (capacity 1: "carried may be set") wakes the
	// flusher to finish it.
	carried *carry
	kick    chan struct{}

	conn    net.Conn
	backoff time.Duration
	nextTry time.Time
}

// Endpoint is a TCP-backed transport endpoint.
type Endpoint struct {
	cfg  Config
	ln   net.Listener
	mbox *transport.Mailbox

	mu    sync.Mutex
	peers map[types.NodeID]*peerState
	// conns holds every connection with a running reader — cached by a peer
	// record or accepted and not yet claimed by one — for Close to close. A
	// reader that starts after Close closes its connection itself.
	conns map[net.Conn]struct{}

	// handler, once set by Dispatch, receives inbound payloads on the
	// connection readers instead of the mailbox.
	handler atomic.Pointer[func(transport.Message)]

	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	framesSent    atomic.Int64
	framesRecv    atomic.Int64
	bytesSent     atomic.Int64
	bytesRecv     atomic.Int64
	flushes       atomic.Int64
	queueDrops    atomic.Int64
	dials         atomic.Int64
	dialFailures  atomic.Int64
	accepts       atomic.Int64
	writeFailures atomic.Int64
	writeTimeouts atomic.Int64
	suppressed    atomic.Int64
	resets        atomic.Int64

	batchSizes   obs.Histogram // payloads per flush (a count, not nanoseconds)
	flushLatency obs.Histogram // per payload, enqueue → write completed
}

// framePool recycles flush encode buffers; a writer holds one only for the
// duration of a write (a carried frame keeps its until the flusher is done).
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Stats is a snapshot of an endpoint's transport counters.
type Stats struct {
	// FramesSent/BytesSent count successfully written payloads (protocol
	// messages) and wire bytes including frame headers; a flush that
	// failed mid-write still counts its payloads as sent plus one
	// WriteFailure, mirroring Send's loss semantics. When payloads
	// coalesce, FramesSent grows per payload while BytesSent grows per
	// wire frame, so bytes-per-message shrinks under load.
	FramesSent, BytesSent int64
	// FramesRecv/BytesRecv count fully parsed inbound payloads (batch
	// members counted individually) and raw frame bytes.
	FramesRecv, BytesRecv int64
	// Flushes counts connection writes: FramesSent/Flushes is the mean
	// batch size. BatchSizes has the full distribution.
	Flushes int64
	// QueueDrops counts payloads dropped as loss because a peer's send
	// queue stayed full past the backpressure window.
	QueueDrops int64
	// Dials counts successful outbound connections, DialFailures failed
	// attempts (each surfaces to the protocol as message loss).
	Dials, DialFailures int64
	// Accepts counts inbound connections taken from the listener.
	Accepts int64
	// WriteFailures counts flush writes that errored (connection then
	// dropped and redialed lazily); WriteTimeouts is the subset that
	// missed the write deadline (stalled peer).
	WriteFailures, WriteTimeouts int64
	// SuppressedSends counts sends swallowed as loss without touching the
	// network because the peer was backing off.
	SuppressedSends int64
	// BreakerOpens and BreakersOpen are always zero: the transport has no
	// circuit breaker, only the dial backoff. They go together with the
	// bench per-layer metric that still reads them.
	BreakerOpens, BreakersOpen int64
	// Resets counts connections torn down via ResetPeer (chaos injection).
	Resets int64
	// ConnsActive is the current number of cached connections.
	ConnsActive int
}

// Merge returns the field-wise sum of two endpoints' counters (a
// cluster's totals).
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		FramesSent:      s.FramesSent + o.FramesSent,
		BytesSent:       s.BytesSent + o.BytesSent,
		FramesRecv:      s.FramesRecv + o.FramesRecv,
		BytesRecv:       s.BytesRecv + o.BytesRecv,
		Flushes:         s.Flushes + o.Flushes,
		QueueDrops:      s.QueueDrops + o.QueueDrops,
		Dials:           s.Dials + o.Dials,
		DialFailures:    s.DialFailures + o.DialFailures,
		Accepts:         s.Accepts + o.Accepts,
		WriteFailures:   s.WriteFailures + o.WriteFailures,
		WriteTimeouts:   s.WriteTimeouts + o.WriteTimeouts,
		SuppressedSends: s.SuppressedSends + o.SuppressedSends,
		BreakerOpens:    s.BreakerOpens + o.BreakerOpens,
		BreakersOpen:    s.BreakersOpen + o.BreakersOpen,
		Resets:          s.Resets + o.Resets,
		ConnsActive:     s.ConnsActive + o.ConnsActive,
	}
}

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	active := 0
	for _, ps := range e.peers {
		if ps.conn != nil {
			active++
		}
	}
	e.mu.Unlock()
	return Stats{
		FramesSent:      e.framesSent.Load(),
		BytesSent:       e.bytesSent.Load(),
		FramesRecv:      e.framesRecv.Load(),
		BytesRecv:       e.bytesRecv.Load(),
		Flushes:         e.flushes.Load(),
		QueueDrops:      e.queueDrops.Load(),
		Dials:           e.dials.Load(),
		DialFailures:    e.dialFailures.Load(),
		Accepts:         e.accepts.Load(),
		WriteFailures:   e.writeFailures.Load(),
		WriteTimeouts:   e.writeTimeouts.Load(),
		SuppressedSends: e.suppressed.Load(),
		Resets:          e.resets.Load(),
		ConnsActive:     active,
	}
}

// BatchSizes returns the distribution of payloads-per-flush. Values are
// counts, not durations, despite the histogram's nanosecond framing.
func (e *Endpoint) BatchSizes() obs.HistSnapshot { return e.batchSizes.Snapshot() }

// FlushLatency returns the distribution of per-payload enqueue→written
// latency, the cost of the coalescing queue.
func (e *Endpoint) FlushLatency() obs.HistSnapshot { return e.flushLatency.Snapshot() }

var (
	_ transport.Endpoint   = (*Endpoint)(nil)
	_ transport.Dispatcher = (*Endpoint)(nil)
)

// Listen creates the endpoint and, if ListenAddr is set, starts accepting.
func Listen(cfg Config) (*Endpoint, error) {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 3 * time.Second
	}
	if cfg.BackoffMin == 0 {
		cfg.BackoffMin = 50 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	peers := make(map[types.NodeID]string, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		peers[id] = addr
	}
	cfg.Peers = peers

	e := &Endpoint{
		cfg:     cfg,
		mbox:    transport.NewMailbox(),
		peers:   make(map[types.NodeID]*peerState),
		conns:   make(map[net.Conn]struct{}),
		closeCh: make(chan struct{}),
	}
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			e.mbox.Close()
			return nil, fmt.Errorf("tcpnet listen %s: %w", cfg.ListenAddr, err)
		}
		e.ln = ln
		e.wg.Add(1)
		go e.acceptLoop()
	}
	return e, nil
}

// ID returns this endpoint's node identifier.
func (e *Endpoint) ID() types.NodeID { return e.cfg.ID }

// Addr returns the actual listening address ("" for client-only endpoints).
// Useful when ListenAddr was ":0".
func (e *Endpoint) Addr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// Recv returns the incoming message channel: every payload when no handler
// is installed, and with one only those that arrived before Dispatch. It is
// closed by Close once every connection reader — and so every handler call
// — has returned.
func (e *Endpoint) Recv() <-chan transport.Message { return e.mbox.Out() }

// Dispatch installs h as the endpoint's message handler
// (transport.Dispatcher): from now on each connection's reader goroutine
// calls h for every payload it parses, so h runs concurrently on as many
// goroutines as there are connections, and a slow h back-pressures its own
// connection only.
func (e *Endpoint) Dispatch(h func(transport.Message)) { e.handler.Store(&h) }

// Dispatching reports whether a handler is installed.
func (e *Endpoint) Dispatching() bool { return e.handler.Load() != nil }

// peerLocked returns the peer's state record, creating it (and starting its
// flusher) if needed. Caller holds e.mu with the endpoint not closed.
func (e *Endpoint) peerLocked(id types.NodeID) *peerState {
	ps, ok := e.peers[id]
	if !ok {
		ps = &peerState{id: id, queue: make(chan sendReq, sendQueueLen), kick: make(chan struct{}, 1)}
		e.peers[id] = ps
		e.wg.Add(1)
		go e.flushLoop(ps)
	}
	return ps
}

// noteFailure records one peer failure: the redial backoff doubles (with
// ±25% jitter). Caller holds e.mu.
func (e *Endpoint) noteFailureLocked(ps *peerState) {
	if ps.backoff == 0 {
		ps.backoff = e.cfg.BackoffMin
	} else {
		ps.backoff *= 2
	}
	if ps.backoff > e.cfg.BackoffMax {
		ps.backoff = e.cfg.BackoffMax
	}
	jitter := 1 + (rand.Float64()-0.5)/2 // 0.75 .. 1.25
	ps.nextTry = time.Now().Add(time.Duration(float64(ps.backoff) * jitter))
}

// noteSuccess clears a peer's backoff. Caller holds e.mu.
func (e *Endpoint) noteSuccessLocked(ps *peerState) {
	ps.backoff = 0
	ps.nextTry = time.Time{}
}

// Send delivers a message to the given node's connection: written by the
// caller itself when the peer is idle (see the package comment), otherwise
// queued for the peer's flusher, which dials (if necessary), coalesces, and
// writes. Transport failures are treated as message loss, matching the
// asynchronous model where the sender cannot distinguish a slow channel
// from a lost message. Send returns an error only for local conditions: a
// closed endpoint or a destination that is neither connected nor in the
// peer table. Send never waits for the socket; a full queue blocks it up to
// the write timeout (backpressure) before reading as loss. A payload is one
// sealed envelope, so it never starts with wire.BatchMarker: a payload that
// did would be taken for a batch frame by the receiver, which drops the
// connection when it fails to split.
func (e *Endpoint) Send(to types.NodeID, payload []byte) error {
	if e.closed.Load() {
		return types.ErrClosed
	}
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return types.ErrClosed
	}
	ps, known := e.peers[to]
	if _, dialable := e.cfg.Peers[to]; !dialable && (!known || ps.conn == nil) {
		e.mu.Unlock()
		return fmt.Errorf("%w: %v not connected and not in peer table", types.ErrUnknownNode, to)
	}
	ps = e.peerLocked(to)
	conn := ps.conn
	// pending is checked before the role is tried: a payload queued before
	// this call began is counted by now, and stays counted until written.
	inline := conn != nil && ps.pending.Load() == 0 && ps.wmu.TryLock()
	if !inline {
		ps.pending.Add(1)
	}
	e.mu.Unlock()

	req := sendReq{payload: payload, at: time.Now(), emit: e.beginSendSpan(to, payload)}
	if inline {
		e.flushBatch(ps, []sendReq{req}, conn)
		ps.wmu.Unlock()
		return nil
	}
	select {
	case ps.queue <- req:
		return nil
	default:
	}
	// Queue full: backpressure, bounded by the same deadline a write gets.
	wait := e.cfg.WriteTimeout
	if wait <= 0 {
		wait = 3 * time.Second
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case ps.queue <- req:
		return nil
	case <-t.C:
		ps.pending.Add(-1)
		e.queueDrops.Add(1)
		req.emit("lost: send queue full")
		return nil
	case <-e.closeCh:
		return types.ErrClosed
	}
}

// beginSendSpan starts the "net-send" span for a traced payload, returning
// the closure that finishes it (errStr != "" marks the send as lost). For
// untraced payloads or without a tracer it returns a no-op, keeping the
// hot path to one nil check plus a constant-time envelope peek.
func (e *Endpoint) beginSendSpan(to types.NodeID, payload []byte) func(errStr string) {
	if e.cfg.Tracer == nil {
		return func(string) {}
	}
	trace, parent, ok := wire.PeekTrace(payload)
	if !ok {
		return func(string) {}
	}
	start := time.Now()
	return func(errStr string) {
		e.cfg.Tracer.Emit(obs.Span{
			Trace: trace, ID: obs.NextID(), Parent: parent,
			Kind: "net-send", Node: int64(e.cfg.ID), Peer: int64(to),
			Start: start, Dur: time.Since(start), Err: errStr,
		})
	}
}

// flushLoop is a peer's flusher: it blocks for the first pending payload,
// drains whatever else is queued (up to maxBatch payloads / the byte
// budget), takes the peer's writer role and writes it all in one frame —
// after finishing the frame an inline Send left half-written, if there is
// one. It exits when the endpoint closes; payloads still queued at that point are
// dropped, which reads as loss.
func (e *Endpoint) flushLoop(ps *peerState) {
	defer e.wg.Done()
	var batch []sendReq
	for {
		batch = batch[:0]
		select {
		case r := <-ps.queue:
			batch = append(batch, r)
		case <-ps.kick:
		case <-e.closeCh:
			return
		}
		size := 0
		for _, r := range batch {
			size += len(r.payload)
		}
	drain:
		for len(batch) < maxBatch && size < flushByteBudget {
			select {
			case r := <-ps.queue:
				batch = append(batch, r)
				size += len(r.payload)
			default:
				break drain
			}
		}
		done := len(batch)
		ps.wmu.Lock()
		if c := ps.carried; c != nil {
			ps.carried = nil
			e.writeFrame(ps, c.conn, c.buf, c.off, []sendReq{c.req}, false)
			done++
		}
		if len(batch) > 0 {
			e.flushBatch(ps, batch, nil)
		}
		ps.wmu.Unlock()
		ps.pending.Add(int32(-done))
	}
}

// flushBatch writes one coalesced batch to the peer: a lone payload goes
// out in the classic single-envelope frame, several go out as one wire
// batch frame. The caller holds the peer's writer role. The flusher passes
// a nil inline connection: connection establishment and the backoff check
// happen here, on its goroutine. An inline Send passes the live connection
// it found, and its write never waits (writeFrame).
func (e *Endpoint) flushBatch(ps *peerState, batch []sendReq, inline net.Conn) {
	conn := inline
	if conn == nil {
		var err error
		if conn, err = e.connFor(ps, int64(len(batch))); err != nil || conn == nil {
			// Closed, or the dial failed or was suppressed: counts as
			// loss, the peer may come back later.
			msg := "lost: peer unreachable or suppressed"
			if err != nil {
				msg = err.Error()
			}
			for _, r := range batch {
				r.emit(msg)
			}
			return
		}
	}

	bufp := framePool.Get().(*[]byte)
	buf := (*bufp)[:0]
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	if len(batch) == 1 {
		buf = append(buf, batch[0].payload...)
	} else {
		payloads := make([][]byte, len(batch))
		for i, r := range batch {
			payloads[i] = r.payload
		}
		buf = wire.AppendBatch(buf, payloads)
	}
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
	binary.BigEndian.PutUint32(buf[4:8], uint32(e.cfg.ID))
	*bufp = buf
	e.framesSent.Add(int64(len(batch)))
	e.bytesSent.Add(int64(len(buf)))
	e.flushes.Add(1)
	e.batchSizes.Record(time.Duration(len(batch)))
	e.writeFrame(ps, conn, bufp, 0, batch, inline != nil)
}

// writeFrame pushes (*bufp)[off:], the rest of the frame carrying batch, to
// conn and settles the outcome: failure accounting and a dropped connection
// on error, flush latencies and spans on success. The caller holds the
// peer's writer role. The two routes differ only in whether the write may
// wait for the socket. The flusher's may, under the WriteTimeout deadline,
// which it clears afterwards so that an expired one never fails a later
// inline write. An inline caller's is one write(2) that cannot wait;
// what the socket did not take becomes the peer's carried frame, which the
// flusher finishes first.
func (e *Endpoint) writeFrame(ps *peerState, conn net.Conn, bufp *[]byte, off int, batch []sendReq, inline bool) {
	rest := (*bufp)[off:]
	deadline := !inline && e.cfg.WriteTimeout > 0
	if deadline {
		_ = conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	}
	n, werr := writeSock(conn, rest, !inline)
	if deadline && werr == nil {
		_ = conn.SetWriteDeadline(time.Time{})
	}
	if inline && werr == nil && n < len(rest) {
		ps.carried = &carry{conn: conn, buf: bufp, off: off + n, req: batch[0]}
		ps.pending.Add(1)
		select {
		case ps.kick <- struct{}{}:
		default:
		}
		return
	}
	*bufp = (*bufp)[:0]
	framePool.Put(bufp)

	e.mu.Lock()
	if werr != nil {
		e.writeFailures.Add(1)
		if ne, ok := werr.(net.Error); ok && ne.Timeout() {
			e.writeTimeouts.Add(1)
		}
		e.noteFailureLocked(ps)
		e.dropConnLocked(ps.id, conn)
	} else {
		e.noteSuccessLocked(ps)
	}
	e.mu.Unlock()
	if werr != nil {
		for _, r := range batch {
			r.emit("lost: " + werr.Error())
		}
		return
	}
	now := time.Now()
	for _, r := range batch {
		e.flushLatency.Record(now.Sub(r.at))
		r.emit("")
	}
}

// connFor returns a connection to the peer, dialing if needed. A nil
// connection with nil error means the batch should read as loss: the dial
// failed, the peer is backing off (n payloads counted as suppressed), or
// an accepted-connection-only peer went away.
func (e *Endpoint) connFor(ps *peerState, n int64) (net.Conn, error) {
	e.mu.Lock()
	if c := ps.conn; c != nil {
		e.mu.Unlock()
		return c, nil
	}
	addr, ok := e.cfg.Peers[ps.id]
	if !ok {
		// The learned connection died and we cannot dial back: loss.
		e.mu.Unlock()
		return nil, nil
	}
	// No cached connection: the backoff window gates the dial.
	if !ps.nextTry.IsZero() && time.Now().Before(ps.nextTry) {
		e.suppressed.Add(n)
		e.mu.Unlock()
		return nil, nil
	}
	e.mu.Unlock()

	tc, err := net.DialTimeout("tcp", addr, e.cfg.DialTimeout)
	if err != nil {
		e.dialFailures.Add(1)
		e.mu.Lock()
		e.noteFailureLocked(ps)
		e.mu.Unlock()
		return nil, nil // loss
	}
	e.dials.Add(1)
	c := withRaw(tc)
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		_ = c.Close()
		return nil, types.ErrClosed
	}
	if ps.conn != nil {
		// Lost the race with an inbound connection from the same peer.
		existing := ps.conn
		e.mu.Unlock()
		_ = c.Close()
		return existing, nil
	}
	ps.conn = c
	e.wg.Add(1)
	e.mu.Unlock()

	// Read replies arriving on this outbound connection.
	go e.readLoop(c, ps.id)
	return c, nil
}

// ResetPeer tears down the cached connection to a peer, simulating a
// connection reset (chaos.PeerResetter). The backoff is untouched:
// a reset is an injected fault, not evidence the peer is down. Returns
// whether there was a connection to kill.
func (e *Endpoint) ResetPeer(id types.NodeID) bool {
	e.mu.Lock()
	ps := e.peers[id]
	var conn net.Conn
	if ps != nil {
		conn = ps.conn
		ps.conn = nil
	}
	e.mu.Unlock()
	if conn == nil {
		return false
	}
	e.resets.Add(1)
	_ = conn.Close()
	return true
}

// dropConnLocked discards the peer's cached connection if it is still the
// given one. Caller holds e.mu.
func (e *Endpoint) dropConnLocked(id types.NodeID, conn net.Conn) {
	if ps, ok := e.peers[id]; ok && ps.conn == conn {
		ps.conn = nil
	}
	_ = conn.Close()
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.accepts.Add(1)
		e.wg.Add(1)
		go e.readLoop(withRaw(conn), -1)
	}
}

// readLoop parses frames from conn. peerHint is the node we dialed, or -1
// for accepted connections, where the sender id comes from the first frame.
// Each frame is split into its member payloads (one for classic frames),
// every member delivered individually: to the handler, on this goroutine,
// if one is installed, otherwise to the mailbox.
func (e *Endpoint) readLoop(conn net.Conn, peerHint types.NodeID) {
	defer e.wg.Done()
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		_ = conn.Close()
		return
	}
	e.conns[conn] = struct{}{}
	e.mu.Unlock()
	registered := peerHint
	defer func() {
		e.mu.Lock()
		delete(e.conns, conn)
		if registered >= 0 {
			e.dropConnLocked(registered, conn)
		} else {
			_ = conn.Close()
		}
		e.mu.Unlock()
	}()

	// The reader's fills are the only socket calls here: frames are parsed
	// and handlers run between them, never inside a RawConn callback, since
	// a handler whose reply write fails closes this connection, and Close
	// waits for the descriptor's callbacks to return.
	br := bufio.NewReaderSize(newSockReader(conn), readBufSize)
	var header [8]byte
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			return
		}
		length := binary.BigEndian.Uint32(header[0:4])
		from := types.NodeID(binary.BigEndian.Uint32(header[4:8]))
		if length < 4 || length > maxFrameSize {
			return // corrupt stream
		}
		payload := make([]byte, length-4)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		members, err := wire.SplitBatch(payload)
		if err != nil {
			return // structurally corrupt batch: treat like a torn stream
		}
		if wire.IsBatch(payload) {
			// A receiver may keep views of what it is handed (a replica
			// stores the value in place): each batch member gets its own
			// allocation, so none pins the whole frame. A lone envelope
			// already is one.
			for i, m := range members {
				members[i] = bytes.Clone(m)
			}
		}
		e.framesRecv.Add(int64(len(members)))
		e.bytesRecv.Add(int64(8 + len(payload)))
		if registered < 0 {
			// Learn the peer so replies go back on this connection. An
			// inbound connection is proof of life: clear any backoff.
			e.mu.Lock()
			if !e.closed.Load() {
				ps := e.peerLocked(from)
				if ps.conn == nil {
					ps.conn = conn
					registered = from
					e.noteSuccessLocked(ps)
				}
			}
			e.mu.Unlock()
		}
		for _, m := range members {
			// The net-recv span ends before the payload is delivered, so a
			// handler running on this goroutine is never counted as network.
			if e.cfg.Tracer != nil {
				if rtrace, rparent, traced := wire.PeekTrace(m); traced {
					rstart := time.Now()
					e.cfg.Tracer.Emit(obs.Span{
						Trace: rtrace, ID: obs.NextID(), Parent: rparent,
						Kind: "net-recv", Node: int64(e.cfg.ID), Peer: int64(from),
						Start: rstart, Dur: time.Since(rstart),
					})
				}
			}
			msg := transport.Message{From: from, To: e.cfg.ID, Payload: m}
			if h := e.handler.Load(); h != nil {
				(*h)(msg)
			} else {
				e.mbox.Put(msg)
			}
		}
	}
}

// Close shuts the endpoint down: listener, flushers, connections, and — once
// every connection reader has returned from its last handler call — the
// mailbox behind Recv.
func (e *Endpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.closeCh)
	if e.ln != nil {
		_ = e.ln.Close()
	}
	e.mu.Lock()
	for conn := range e.conns {
		_ = conn.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
	e.mbox.Close()
	return nil
}
