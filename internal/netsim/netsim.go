// Package netsim simulates the asynchronous message-passing system of the
// paper: n processors, point-to-point channels that are reliable but deliver
// with arbitrary (here: seeded-random, configurable) delay, and crash
// failures. It adds the instrumentation the evaluation needs — exact message
// counts per protocol kind.
//
// netsim keeps no fault state of its own. A Net embeds the repository's one
// fault model, a *chaos.Net, so crashes, partitions, link blocks, delay
// spikes, drop/dup/corrupt/reorder mixes and Byzantine interceptors are set
// through the promoted methods (net.Crash, net.SetDefaultFaults,
// net.SetInterceptor, ...), and every send delivers what chaos decides.
//
// Delivery ordering is not FIFO unless delays are constant; the ABD protocol
// does not require FIFO channels, and the tests exercise reordering.
package netsim

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config controls the simulated network. The zero value is valid: zero
// delays, no faults.
type Config struct {
	// Seed makes delay and fault decisions reproducible. Zero means seed 1.
	Seed int64
	// MinDelay and MaxDelay bound the uniformly random one-way message
	// delay. MaxDelay < MinDelay is treated as MaxDelay == MinDelay.
	MinDelay time.Duration
	MaxDelay time.Duration
	// Tracer, when non-nil, receives a "net-send" span for every message
	// carrying a trace context: its Dur is the realized send-to-delivery
	// transit (the simulated delay plus scheduling slop), with Err set on
	// messages the fault model lost. Untraced messages emit nothing.
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
	Dropped   int64 // every fault loss: crash, partition, block, drop, reset
	// Duplicated counts messages delivered twice (a dup fault).
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
	*chaos.Net // the fault model; netsim keeps no fault state of its own

	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand // samples the base delay
	nodes map[types.NodeID]*endpoint

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
		Net:         chaos.New(seed),
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(seed)),
		nodes:       make(map[types.NodeID]*endpoint),
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

// Stats returns a snapshot of the current epoch's counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		Sent: n.sent, Delivered: n.delivered, Dropped: n.dropped, Duplicated: n.duplicated,
		ByKind: maps.Clone(n.byKind), BytesByKind: maps.Clone(n.bytesByKind), Delay: n.delay.Snapshot(),
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

// send implements the one-way channel: run the sender's interceptor, take
// the fault model's decision, then deliver what survives after the sampled
// base delay plus the planned fault delay.
func (n *Net) send(from, to types.NodeID, payload []byte) error {
	payload, ok := n.Intercept(from, to, payload)
	if !ok {
		return nil
	}
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
	d := n.Plan(from, to, len(payload))
	payload = d.Corrupt(payload)

	n.sent++
	if len(payload) > 0 {
		// The high bit of the kind byte is the envelope's trace flag; mask
		// it so the per-kind message counts (experiment T1) are identical
		// whether or not tracing is on.
		kind := payload[0] &^ wire.TraceFlag
		n.byKind[kind]++
		n.bytesByKind[kind] += int64(len(payload))
	}
	copies := 1
	switch {
	case d.Drop:
		copies = 0
		n.dropped++
	case d.Dup:
		copies = 2
		n.duplicated++
	}
	delays := make([]time.Duration, copies)
	for i := range delays {
		delays[i] = d.After(n.sampleDelayLocked())
	}
	// Pin the message to this epoch's accounting: deliveries racing a
	// ResetStats record into this (old) histogram and are not counted in
	// the new epoch's counters.
	epoch, delayHist := n.epoch, n.delay
	n.inflight += copies
	n.mu.Unlock()

	sentAt := time.Now()
	msg := transport.Message{From: from, To: to, Payload: payload}
	emit := func(string) {}
	if n.cfg.Tracer != nil {
		if trace, parentSpan, ok := wire.PeekTrace(payload); ok {
			emit = func(errStr string) {
				n.cfg.Tracer.Emit(obs.Span{
					Trace: trace, ID: obs.NextID(), Parent: parentSpan,
					Kind: "net-send", Node: int64(from), Peer: int64(to),
					Start: sentAt, Dur: time.Since(sentAt), Err: errStr,
				})
			}
		}
	}
	if d.Drop {
		emit("dropped")
		return nil
	}
	deliver := func() { n.deliver(dst, to, msg, epoch, delayHist, sentAt, emit) }
	for _, delay := range delays {
		if delay <= 0 {
			deliver()
			continue
		}
		time.AfterFunc(delay, deliver)
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
	if n.closed || n.Crashed(to) {
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
	return d
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
