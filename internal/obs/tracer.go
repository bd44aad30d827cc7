package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval: a whole client operation (a read or a
// write), one of its broadcast-and-collect phases, a replica-side handler
// interval ("handle", "wal-append", "stale-reject"), or a transport hop
// ("net-send", "net-recv"). Phase spans point at their operation span via
// Parent and carry the quorum-assembly detail the latency analysis needs:
// how many replicas were contacted, how large the satisfying quorum was,
// when the first and the quorum-completing replies arrived, and every
// counted replica's reply round-trip offset.
type Span struct {
	// Trace groups every span caused by one client operation, across
	// processes; 0 on spans emitted outside any propagated trace.
	Trace uint64 `json:"trace,omitempty"`
	// ID is unique across cooperating processes (see NextID); Parent is
	// the causally enclosing span's ID, or 0 for root spans.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Kind is "read", "write", or "phase" on the client side; "handle",
	// "wal-append", or "stale-reject" on the replica side; "net-send" or
	// "net-recv" on a transport hop. Phase spans name their role in Phase:
	// "query", "update", or "write-back"; replica spans echo the phase
	// that caused them.
	Kind  string `json:"kind"`
	Phase string `json:"phase,omitempty"`
	// Reg is the register operated on; Node the emitting node's id.
	Reg  string `json:"reg"`
	Node int64  `json:"node"`
	// Peer is the other endpoint of a transport span (destination of a
	// net-send, sender of a net-recv); unused elsewhere.
	Peer int64 `json:"peer,omitempty"`
	// Shard is the 1-based replica-group tag stamped by a sharded store's
	// tagging tracer (group index + 1, so 0 means "not shard-tagged").
	// Spans emitted through a shard-tagged tracer — a shard's client and
	// its replicas — carry the tag, letting per-shard load and latency be
	// split offline (abd-cli trace prints the per-shard breakdown).
	Shard int `json:"shard,omitempty"`

	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	// Err is set when the interval ended in an error (no quorum, closed).
	Err string `json:"err,omitempty"`

	// Phase-only fields.
	Targets    int                     `json:"targets,omitempty"`     // replicas contacted
	Quorum     int                     `json:"quorum,omitempty"`      // replies when pred was satisfied
	FirstReply time.Duration           `json:"first_reply,omitempty"` // offset of first counted reply
	LastReply  time.Duration           `json:"last_reply,omitempty"`  // offset of the quorum-completing reply
	ReplicaRTT map[int64]time.Duration `json:"replica_rtt,omitempty"` // per-replica reply offsets
}

// Tracer receives completed spans. Implementations must be safe for
// concurrent Emit calls; Emit must not block on the caller's hot path.
type Tracer interface {
	Emit(Span)
}

// Span ids must stay unique across every process contributing spans to one
// collector, or two processes' trees would merge at a shared node id. Each
// process walks its own Weyl sequence: a crypto-random starting point
// advanced by a crypto-random odd stride, so the full 2^64 cycle is covered
// before any in-process repeat and two processes collide with probability
// ~k²/2^64 for k ids drawn.
var (
	spanID     atomic.Uint64
	spanStride uint64 = 1
)

func init() {
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return // fall back to the sequential 1,2,3,... sequence
	}
	spanID.Store(binary.LittleEndian.Uint64(seed[0:8]))
	spanStride = binary.LittleEndian.Uint64(seed[8:16]) | 1
}

// NextID returns a span id unique in this process and collision-resistant
// across processes (never 0).
func NextID() uint64 {
	for {
		if id := spanID.Add(spanStride); id != 0 {
			return id
		}
	}
}

// NewTraceID returns a fresh trace id (never 0) with the same
// cross-process collision resistance as NextID.
func NewTraceID() uint64 { return NextID() }

// JSONL writes each span as one JSON line, for offline analysis (jq,
// pandas). Writes are buffered; call Close to flush.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL creates a JSONL tracer writing to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// Emit writes the span as one line. The first write error sticks and
// silences later writes; Close reports it.
func (j *JSONL) Emit(s Span) {
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(s)
	}
	j.mu.Unlock()
}

// Close flushes the buffer and returns the first error seen.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ferr := j.w.Flush(); j.err == nil {
		j.err = ferr
	}
	return j.err
}

// Multi fans every span out to each tracer in order.
type Multi []Tracer

// Emit forwards the span to every tracer.
func (m Multi) Emit(s Span) {
	for _, t := range m {
		t.Emit(s)
	}
}
