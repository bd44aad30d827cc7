// Package netsim simulates the asynchronous message-passing system of the
// paper: n processors, point-to-point channels that are reliable but deliver
// with arbitrary (here: seeded-random, configurable) delay, and crash
// failures. It adds the instrumentation the evaluation needs — exact message
// counts per protocol kind — and the adversarial controls the robustness
// experiments need: crashes, partitions, per-link blocks, delay spikes, and
// probabilistic drops.
//
// Delivery ordering is not FIFO unless delays are constant; the ABD protocol
// does not require FIFO channels, and the tests exercise reordering.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config controls the simulated network. The zero value is valid: zero
// delays, no drops.
type Config struct {
	// Seed makes delay and drop decisions reproducible. Zero means seed 1.
	Seed int64
	// MinDelay and MaxDelay bound the uniformly random one-way message
	// delay. MaxDelay < MinDelay is treated as MaxDelay == MinDelay.
	MinDelay time.Duration
	MaxDelay time.Duration
	// DropProb is the probability an individual message is lost. The
	// paper's model has reliable links; this knob exists for stress tests
	// and is 0 by default.
	DropProb float64
	// DupProb is the probability an individual message is delivered twice
	// (at-least-once delivery). The protocol's messages are idempotent, so
	// duplication must be harmless; tests verify that.
	DupProb float64
	// Tracer, when non-nil, receives a "net-send" span for every message
	// carrying a trace context: its Dur is the realized send-to-delivery
	// transit (the simulated delay plus scheduling slop), with Err set on
	// messages lost to a crash, partition, block, or random drop. Untraced
	// messages emit nothing.
	Tracer obs.Tracer
}

// Stats is a snapshot of network counters.
//
// Counters are scoped to a stats epoch: ResetStats starts a new epoch, and
// a message is accounted to the epoch in which it was *sent*. A message in
// flight across a reset is still delivered, but lands in neither the old
// snapshot (already taken) nor the new epoch's counters — so benches that
// reset between phases never see a phase's counters perturbed by the
// previous phase's stragglers.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64 // includes losses to crash, partition, block, and DropProb
	// Duplicated counts messages delivered twice (DupProb).
	Duplicated int64
	// ByKind counts sent messages by the first payload byte, which the
	// protocol layer uses as its message-kind tag. This is how the message
	// complexity experiments (T1) count round trips exactly.
	ByKind map[byte]int64
	// BytesByKind sums payload bytes of sent messages per kind byte, for
	// bandwidth accounting alongside ByKind's message counts.
	BytesByKind map[byte]int64
	// Delay is the distribution of realized send-to-delivery latencies
	// (sampled delay plus scheduling slop) of this epoch's delivered
	// messages.
	Delay obs.HistSnapshot
}

// Net is a simulated network. All methods are safe for concurrent use.
type Net struct {
	cfg Config

	mu         sync.Mutex
	rng        *rand.Rand
	nodes      map[types.NodeID]*endpoint
	crashed    map[types.NodeID]bool
	blocked    map[link]bool
	partition  map[types.NodeID]int // node -> group; empty map means no partition
	delayScale float64              // multiplies the sampled delay; 1 by default

	epoch       uint64 // advanced by ResetStats; messages carry their send epoch
	sent        int64
	delivered   int64
	dropped     int64
	duplicated  int64
	byKind      map[byte]int64
	bytesByKind map[byte]int64
	delay       *obs.Histogram // per-epoch; swapped out by ResetStats

	closed   bool
	inflight int        // scheduled deliveries not yet completed or discarded
	idle     *sync.Cond // on mu; broadcast when inflight drops to zero
}

type link struct{ from, to types.NodeID }

// New creates a simulated network.
func New(cfg Config) *Net {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	n := &Net{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(seed)),
		nodes:       make(map[types.NodeID]*endpoint),
		crashed:     make(map[types.NodeID]bool),
		blocked:     make(map[link]bool),
		partition:   make(map[types.NodeID]int),
		delayScale:  1,
		byKind:      make(map[byte]int64),
		bytesByKind: make(map[byte]int64),
		delay:       new(obs.Histogram),
	}
	n.idle = sync.NewCond(&n.mu)
	return n
}

// Node attaches (or returns the existing) endpoint for id.
func (n *Net) Node(id types.NodeID) transport.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.nodes[id]; ok {
		return ep
	}
	ep := &endpoint{id: id, net: n, mbox: transport.NewMailbox()}
	n.nodes[id] = ep
	return ep
}

// Reattach replaces a node's endpoint with a fresh one, closing any old
// endpoint. Used by crash-recovery scenarios: a restarted process gets a
// new attachment under the same identity (messages in flight to the old
// endpoint are lost, as a real restart would lose socket buffers).
func (n *Net) Reattach(id types.NodeID) transport.Endpoint {
	n.mu.Lock()
	old := n.nodes[id]
	ep := &endpoint{id: id, net: n, mbox: transport.NewMailbox()}
	n.nodes[id] = ep
	n.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return ep
}

// Crash makes a node fail-stop: all messages to and from it are dropped from
// now on. Matches the paper's crash model — the node simply stops taking
// steps as far as the rest of the system can tell.
func (n *Net) Crash(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Crashed reports whether a node has been crashed.
func (n *Net) Crashed(id types.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Recover clears a node's crashed flag. The ABD crash model has no recovery;
// this exists so tests can build crash-recovery scenarios explicitly.
func (n *Net) Recover(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Partition splits the network into groups; messages cross groups only if
// both endpoints are in the same group. Nodes not mentioned in any group are
// isolated from everyone. Call Heal to undo.
func (n *Net) Partition(groups ...[]types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[types.NodeID]int)
	for g, members := range groups {
		for _, id := range members {
			n.partition[id] = g + 1
		}
	}
	if len(groups) == 0 {
		// Partition() with no groups isolates every attached node in its
		// own singleton group.
		g := 1
		for id := range n.nodes {
			n.partition[id] = g
			g++
		}
	}
}

// Heal removes any partition.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[types.NodeID]int)
}

// BlockLink drops all messages from one node to another (one direction).
func (n *Net) BlockLink(from, to types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[link{from, to}] = true
}

// UnblockLink re-enables a blocked link.
func (n *Net) UnblockLink(from, to types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, link{from, to})
}

// SetDelayScale multiplies all sampled delays by s (s >= 0). Used by the
// delay-spike fault action.
func (n *Net) SetDelayScale(s float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s < 0 {
		s = 0
	}
	n.delayScale = s
}

// Stats returns a snapshot of the current epoch's counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	byKind := make(map[byte]int64, len(n.byKind))
	for k, v := range n.byKind {
		byKind[k] = v
	}
	bytesByKind := make(map[byte]int64, len(n.bytesByKind))
	for k, v := range n.bytesByKind {
		bytesByKind[k] = v
	}
	return Stats{
		Sent: n.sent, Delivered: n.delivered, Dropped: n.dropped, Duplicated: n.duplicated,
		ByKind: byKind, BytesByKind: bytesByKind, Delay: n.delay.Snapshot(),
	}
}

// ResetStats zeroes the counters by starting a new stats epoch (used
// between benchmark phases). The reset is atomic with respect to in-flight
// deliveries: a message is accounted to the epoch it was sent in, so
// deliveries racing the reset update the *old* epoch's (now discarded)
// counters and histogram, never the new epoch's. See Stats for the full
// contract.
func (n *Net) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch++
	n.sent, n.delivered, n.dropped, n.duplicated = 0, 0, 0, 0
	n.byKind = make(map[byte]int64)
	n.bytesByKind = make(map[byte]int64)
	n.delay = new(obs.Histogram)
}

// Drain blocks until every in-flight delivery has completed or been
// discarded, without closing anything. New sends may still be issued while
// (and after) Drain runs; it only flushes what was in the air when each
// delivery timer fires. Teardown paths call it between stopping the senders
// and closing the receivers, so no delayed delivery races an endpoint's
// close (the "send on closed endpoint" noise under -race).
func (n *Net) Drain() {
	n.mu.Lock()
	n.waitIdleLocked()
	n.mu.Unlock()
}

// waitIdleLocked blocks until no delivery is in flight; caller holds n.mu.
// A count under the mutex rather than a WaitGroup, because replicas still
// running keep scheduling deliveries (WaitGroup forbids an Add from zero
// concurrent with Wait).
func (n *Net) waitIdleLocked() {
	for n.inflight > 0 {
		n.idle.Wait()
	}
}

// Close shuts down the network and all endpoints, waiting for in-flight
// deliveries to finish or be discarded.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*endpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.waitIdleLocked()
	n.mu.Unlock()

	for _, ep := range eps {
		ep.Close()
	}
}

// send implements the one-way channel: sample a delay, then deliver unless
// the message is lost to a crash, partition, block, or random drop.
func (n *Net) send(from, to types.NodeID, payload []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return types.ErrClosed
	}
	dst, ok := n.nodes[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %v", types.ErrUnknownNode, to)
	}

	// A payload may be a wire batch frame carrying several protocol
	// envelopes (the TCP transport coalesces under load; the sim mirrors
	// its delivery semantics). Members are accounted and delivered as
	// individual messages but share one fate and one sampled delay: the
	// batch travels as a unit, exactly like a TCP frame.
	members := [][]byte{payload}
	if wire.IsBatch(payload) {
		if m, err := wire.SplitBatch(payload); err == nil {
			members = m
		}
		// A structurally invalid batch stays a single opaque payload: the
		// receiver rejects it, matching a corrupt frame on the real wire.
	}
	n.sent += int64(len(members))
	for _, m := range members {
		if len(m) > 0 {
			// The high bit of the kind byte is the envelope's trace flag;
			// mask it so the per-kind message counts (experiment T1) are
			// identical whether or not tracing is on.
			kind := m[0] &^ wire.TraceFlag
			n.byKind[kind]++
			n.bytesByKind[kind] += int64(len(m))
		}
	}

	drop := false
	switch {
	case n.crashed[from] || n.crashed[to]:
		drop = true
	case n.blocked[link{from, to}]:
		drop = true
	case len(n.partition) > 0 && n.partition[from] != n.partition[to]:
		drop = true
	case n.cfg.DropProb > 0 && n.rng.Float64() < n.cfg.DropProb:
		drop = true
	}
	if drop {
		n.dropped += int64(len(members))
		n.mu.Unlock()
		if n.cfg.Tracer != nil {
			for _, m := range members {
				if trace, parentSpan, ok := wire.PeekTrace(m); ok {
					n.cfg.Tracer.Emit(obs.Span{
						Trace: trace, ID: obs.NextID(), Parent: parentSpan,
						Kind: "net-send", Node: int64(from), Peer: int64(to),
						Start: time.Now(), Err: "dropped",
					})
				}
			}
		}
		return nil
	}

	copies := 1
	if n.cfg.DupProb > 0 && n.rng.Float64() < n.cfg.DupProb {
		copies = 2
		n.duplicated++
	}
	delays := make([]time.Duration, copies)
	for i := range delays {
		delays[i] = n.sampleDelayLocked()
	}
	// Pin the message to this epoch's accounting: deliveries racing a
	// ResetStats record into this (old) histogram and are not counted in
	// the new epoch's counters.
	epoch, delayHist := n.epoch, n.delay
	n.inflight += copies * len(members)
	n.mu.Unlock()

	sentAt := time.Now()
	msgs := make([]transport.Message, len(members))
	emits := make([]func(string), len(members))
	for i, m := range members {
		msgs[i] = transport.Message{From: from, To: to, Payload: m}
		emits[i] = func(string) {}
		if n.cfg.Tracer != nil {
			if trace, parentSpan, ok := wire.PeekTrace(m); ok {
				emits[i] = func(errStr string) {
					n.cfg.Tracer.Emit(obs.Span{
						Trace: trace, ID: obs.NextID(), Parent: parentSpan,
						Kind: "net-send", Node: int64(from), Peer: int64(to),
						Start: sentAt, Dur: time.Since(sentAt), Err: errStr,
					})
				}
			}
		}
	}
	deliverAll := func() {
		for i := range msgs {
			n.deliver(dst, to, msgs[i], epoch, delayHist, sentAt, emits[i])
		}
	}
	for _, delay := range delays {
		if delay <= 0 {
			deliverAll()
			continue
		}
		time.AfterFunc(delay, deliverAll)
	}
	return nil
}

func (n *Net) deliver(dst *endpoint, to types.NodeID, msg transport.Message, epoch uint64, delayHist *obs.Histogram, sentAt time.Time, emit func(string)) {
	defer func() {
		n.mu.Lock()
		if n.inflight--; n.inflight == 0 {
			n.idle.Broadcast()
		}
		n.mu.Unlock()
	}()
	n.mu.Lock()
	if n.closed || n.crashed[to] {
		if epoch == n.epoch {
			n.dropped++
		}
		n.mu.Unlock()
		emit("dropped at delivery")
		return
	}
	if epoch == n.epoch {
		n.delivered++
	}
	n.mu.Unlock()
	delayHist.Record(time.Since(sentAt))
	dst.mbox.Put(msg)
	emit("")
}

func (n *Net) sampleDelayLocked() time.Duration {
	min, max := n.cfg.MinDelay, n.cfg.MaxDelay
	d := min
	if max > min {
		d = min + time.Duration(n.rng.Int63n(int64(max-min)+1))
	}
	return time.Duration(float64(d) * n.delayScale)
}

// endpoint is a node's attachment to the simulated network.
type endpoint struct {
	id   types.NodeID
	net  *Net
	mbox *transport.Mailbox

	mu     sync.Mutex
	closed bool
}

var _ transport.Endpoint = (*endpoint)(nil)

func (e *endpoint) ID() types.NodeID { return e.id }

func (e *endpoint) Send(to types.NodeID, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return types.ErrClosed
	}
	return e.net.send(e.id, to, payload)
}

func (e *endpoint) Recv() <-chan transport.Message { return e.mbox.Out() }

func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.mbox.Close()
	return nil
}
