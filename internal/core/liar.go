package core

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/timestamp"
	"repro/internal/types"
)

// ByzMode selects a Liar's lying strategy.
type ByzMode int

// Lying strategies.
const (
	// ByzFabricate answers every query with a fabricated value carrying an
	// enormous timestamp — the strongest attack on a max-timestamp read.
	ByzFabricate ByzMode = iota + 1
	// ByzStale answers every query with the initial (never written) state
	// and acks writes.
	ByzStale
	// ByzSilent never answers anything: indistinguishable from a crash.
	ByzSilent
	// ByzEquivocate fabricates a *different* value per query, so no two
	// clients (or phases) see the same lie.
	ByzEquivocate
)

// Liar turns an honest replica's outbound traffic into a Byzantine
// replica's, from the network's point of view. It is the one adversary the
// repository has — tests, experiments and abd-sim run it over netsim, the
// nemesis harness over TCP — and the protocol-level
// analogue of chaos byte corruption: instead of flipping bits (which the
// CRC trailer catches), it decodes each reply the replica sends, rewrites
// it according to the active ByzMode — fabricated max-tags, stale state,
// per-destination equivocation, or selective silence — and re-encodes it,
// CRC and trace context intact. The lie is well-formed protocol and sails
// straight through every integrity check; only read-path validation
// (WithByzantine) can reject it.
//
// Install the Intercept method as a chaos.Interceptor on the lying node's
// outbound path (chaos.Net.SetInterceptor). The replica underneath stays
// honest — it keeps storing writes and appending its WAL — so clearing the
// mode instantly restores a correct, caught-up replica: the faulty thing
// is the node's reporting, not its state. That is exactly the adversary
// the nemesis Byzantine schedules need, a replica that lies for a window
// and then rejoins.
//
// Liar is safe for concurrent use (transports may send from several
// goroutines) and survives replica crash/restart cycles: it keys off the
// node, not the process.
type Liar struct {
	id   types.NodeID
	mode atomic.Int32

	mu  sync.Mutex
	rng *rand.Rand

	lies  atomic.Int64 // replies rewritten
	muted atomic.Int64 // replies suppressed (ByzSilent)
}

// NewLiar creates a liar for node id, initially honest (mode 0). seed
// drives the equivocation randomness.
func NewLiar(id types.NodeID, seed int64) *Liar {
	return &Liar{id: id, rng: rand.New(rand.NewSource(seed))}
}

// SetMode switches the lying strategy; 0 (no ByzMode) restores honesty.
func (l *Liar) SetMode(m ByzMode) { l.mode.Store(int32(m)) }

// Mode returns the active strategy (0 = honest).
func (l *Liar) Mode() ByzMode { return ByzMode(l.mode.Load()) }

// Stats returns how many replies were rewritten and suppressed.
func (l *Liar) Stats() (lies, muted int64) {
	return l.lies.Load(), l.muted.Load()
}

// Intercept rewrites one outbound payload. It matches the
// chaos.Interceptor contract: the returned payload replaces the original,
// and ok=false suppresses the send entirely. Non-protocol payloads and
// request kinds pass through untouched — a liar replica still *asks*
// honestly, it just answers with lies.
func (l *Liar) Intercept(to types.NodeID, payload []byte) ([]byte, bool) {
	mode := ByzMode(l.mode.Load())
	if mode == 0 {
		return payload, true
	}
	m, err := decodeMessage(payload)
	if err != nil {
		return payload, true
	}
	switch m.Kind {
	case KindReadReply:
		// A written tag without a value answers a tag query (a write's
		// query phase): the lie there is a tag, and it carries no value
		// either. The liar cannot tell a tag query on a never-written
		// register from a read of one; those replies get a value, which
		// a querying writer ignores.
		tagOnly := m.Tag.Valid && m.Val == nil
		switch mode {
		case ByzSilent:
			l.muted.Add(1)
			return nil, false
		case ByzFabricate:
			m.Tag = Tag{Valid: true, TS: timestamp.TS{Seq: 1 << 40, Writer: l.id}}
			if !tagOnly {
				m.Val = []byte("byzantine-fabrication")
			}
		case ByzEquivocate:
			l.mu.Lock()
			seq := (1 << 40) + l.rng.Int63n(1<<20)
			a, b := byte(l.rng.Intn(256)), byte(l.rng.Intn(256))
			l.mu.Unlock()
			m.Tag = Tag{Valid: true, TS: timestamp.TS{Seq: seq, Writer: l.id}}
			if !tagOnly {
				m.Val = []byte{a, b}
			}
		case ByzStale:
			// Pretend nothing was ever written.
			m.Tag = Tag{}
			m.Val = nil
		}
		l.lies.Add(1)
		return m.encode(), true
	case KindWriteAck:
		if mode == ByzSilent {
			l.muted.Add(1)
			return nil, false
		}
		// The other modes keep acking; the honest replica underneath really
		// did store the write, the node merely lies about reads.
		return payload, true
	default:
		return payload, true
	}
}
