package core

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/timestamp"
	"repro/internal/transport"
	"repro/internal/types"
)

// ByzMode selects a Byzantine replica's lying strategy.
type ByzMode int

// Lying strategies for ByzantineReplica.
const (
	// ByzFabricate answers every query with a fabricated value carrying an
	// enormous timestamp — the strongest attack on a max-timestamp read.
	ByzFabricate ByzMode = iota + 1
	// ByzStale answers every query with the initial (never written) state
	// and acks writes without storing them.
	ByzStale
	// ByzSilent never answers anything: indistinguishable from a crash.
	ByzSilent
	// ByzEquivocate fabricates a *different* value per query, so no two
	// clients (or phases) see the same lie.
	ByzEquivocate
)

// ByzantineReplica is a test adversary: it speaks the replica protocol but
// lies according to its mode. It exists so the masking-quorum extension
// (WithMaskingFaults) can be exercised against real attacks; see the
// Byzantine tests and experiment T6.
type ByzantineReplica struct {
	id   types.NodeID
	ep   transport.Endpoint
	mode ByzMode
	rng  *rand.Rand

	started atomic.Bool
	done    chan struct{}
}

// NewByzantineReplica creates the adversary on ep. It takes ownership of
// the endpoint.
func NewByzantineReplica(id types.NodeID, ep transport.Endpoint, mode ByzMode, seed int64) *ByzantineReplica {
	return &ByzantineReplica{
		id:   id,
		ep:   ep,
		mode: mode,
		rng:  rand.New(rand.NewSource(seed)),
		done: make(chan struct{}),
	}
}

// ID returns the adversary's node id.
func (b *ByzantineReplica) ID() types.NodeID { return b.id }

// Start launches the message loop.
func (b *ByzantineReplica) Start() {
	if !b.started.CompareAndSwap(false, true) {
		return
	}
	go b.loop()
}

// Stop closes the endpoint and waits for the loop to exit.
func (b *ByzantineReplica) Stop() {
	if b.started.CompareAndSwap(false, true) {
		close(b.done)
		_ = b.ep.Close()
		return
	}
	_ = b.ep.Close()
	<-b.done
}

func (b *ByzantineReplica) loop() {
	defer close(b.done)
	for raw := range b.ep.Recv() {
		m, err := decodeMessage(raw.Payload)
		if err != nil {
			continue
		}
		if b.mode == ByzSilent {
			continue
		}
		switch m.Kind {
		case KindReadQuery:
			reply := message{Kind: KindReadReply, Op: m.Op, Reg: m.Reg}
			switch b.mode {
			case ByzFabricate:
				reply.Tag = Tag{Valid: true, TS: timestamp.TS{Seq: 1 << 40, Writer: b.id}}
				reply.Val = []byte("byzantine-fabrication")
				// Also claim the fabrication is quorum-confirmed: the strongest
				// attack on the fast path's watermark, which must hold the claim
				// to the f+1 bar rather than trust it.
				reply.Conf = reply.Tag
			case ByzEquivocate:
				reply.Tag = Tag{Valid: true, TS: timestamp.TS{
					Seq:    (1 << 40) + b.rng.Int63n(1<<20),
					Writer: b.id,
				}}
				reply.Val = []byte{byte(b.rng.Intn(256)), byte(b.rng.Intn(256))}
				reply.Conf = reply.Tag
			case ByzStale:
				// Zero tag: pretends nothing was ever written.
			}
			_ = b.ep.Send(raw.From, reply.encode())
		case KindWrite:
			// Ack without storing: the value is silently discarded.
			ack := message{Kind: KindWriteAck, Op: m.Op, Reg: m.Reg}
			_ = b.ep.Send(raw.From, ack.encode())
		}
	}
}
