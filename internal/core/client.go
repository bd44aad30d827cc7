package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/timestamp"
	"repro/internal/transport"
	"repro/internal/types"
)

// Client is one processor's invocation side of the emulation. It issues the
// paper's two-phase operations against a fixed replica group:
//
//	Write(v):  [multi-writer: query a read quorum for the max timestamp]
//	           send (ts, v) to all, await a write quorum of acks.
//	Read():    query a read quorum, pick the max-timestamp pair,
//	           write it back to a write quorum, return the value.
//
// A query asks one minimal quorum, rotating across phases and chosen to
// need no replica that went silent (it still asks those), and widens to
// everyone on a retransmit tick; updates go to all (targets). Safety rests on which replies a phase
// counts, never on whom it asked.
//
// A Client is safe for concurrent use; overlapping operations are
// multiplexed over one endpoint by operation identifiers, and each runs its
// own quorum rounds. Concurrent writes to one register through one client
// each get a distinct tag (nextTag).
type Client struct {
	id       types.NodeID
	ep       transport.Endpoint
	replicas []types.NodeID
	index    map[types.NodeID]int
	qs       quorum.System

	// Mode flags; see options.go.
	singleWriter bool
	readMode     ReadMode
	bounded      bool
	boundedDom   timestamp.Cyclic // the window every tag this client issues carries
	f            int              // Byzantine replicas tolerated (WithByzantine; 0 = crash faults only)

	// Whom a query phase asks first (targetTable): one rotation per start
	// for plain queries and for a ReadAtomic read's query; nil asks all.
	queryTargets, fastTargets []quorum.Set
	rrNext                    atomic.Uint64 // rotation cursor
	// silent is a quorum.Set of the replicas a retransmit tick found
	// targeted and unanswered; any reply from one clears its bit.
	silent atomic.Uint64

	// Retransmission bounds (WithRetransmit): the interval tracks the
	// client's own observed phase latencies, clamped to [rtFloor, rtCeil].
	rtFloor, rtCeil time.Duration
	// The interval last derived per phase kind (retransmitInterval).
	rtQuery, rtUpdate adaptiveInterval

	// Tag-issuing state, per register: the last sequence number this client
	// issued (both writer modes; see nextTag) and, under bounded labels, the
	// last label, present once one was issued.
	tagMu   sync.Mutex
	tagSeq  map[string]int64
	swLabel map[string]int64

	// Byzantine evidence (WithByzantine; see audit): per register, the tag
	// each replica (by index) last reported to this client (nil = no audit),
	// and per replica how many of its replies were evidence of lying.
	seenMu     sync.Mutex
	seen       map[string][]Tag
	suspicions []atomic.Int64

	opSeq   atomic.Uint64
	pendMu  sync.Mutex
	pending map[uint64]*opInbox

	done chan struct{}

	metrics Metrics
	lat     latencySet
	hot     *health.TopK // per-register op counts (always on, like lat)
	tracer  obs.Tracer   // nil = tracing disabled (the default)
}

// NewClient creates a client for the given replica group. The client takes
// ownership of the endpoint: Close closes it. The replica slice's order
// defines quorum set indexes and must match the order used to size the
// quorum system.
func NewClient(id types.NodeID, ep transport.Endpoint, replicas []types.NodeID, opts ...ClientOption) (*Client, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("core: empty replica group")
	}
	if len(replicas) > quorum.MaxNodes {
		return nil, fmt.Errorf("core: replica group of %d exceeds max %d", len(replicas), quorum.MaxNodes)
	}
	c := &Client{
		id:       id,
		ep:       ep,
		replicas: append([]types.NodeID(nil), replicas...),
		index:    make(map[types.NodeID]int, len(replicas)),
		qs:       quorum.NewMajority(len(replicas)),
		tagSeq:   make(map[string]int64),
		swLabel:  make(map[string]int64),
		pending:  make(map[uint64]*opInbox),
		done:     make(chan struct{}),
		hot:      health.NewTopK(0),

		rtFloor: DefaultRetransmitFloor,
		rtCeil:  DefaultRetransmitCeiling,
	}
	for i, rid := range c.replicas {
		if _, dup := c.index[rid]; dup {
			return nil, fmt.Errorf("core: duplicate replica %v", rid)
		}
		c.index[rid] = i
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.readMode < ReadAtomic || c.readMode > ReadRegular {
		return nil, fmt.Errorf("core: unknown read mode %d", c.readMode)
	}
	if c.f < 0 {
		return nil, fmt.Errorf("core: WithByzantine(%d): f must be >= 0", c.f)
	}
	if c.f > 0 {
		if c.readMode == ReadRegular {
			return nil, fmt.Errorf("core: WithByzantine cannot combine with ReadRegular: the write-back is what repairs honest laggards")
		}
		m := quorum.NewMasking(len(c.replicas), c.f)
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("core: WithByzantine(%d): %w", c.f, err)
		}
		c.qs = m
		c.suspicions = make([]atomic.Int64, len(c.replicas))
		if !c.bounded { // a cyclic label names many writes over time: no audit
			c.seen = make(map[string][]Tag)
		}
	}
	if c.qs.Size() != len(c.replicas) {
		return nil, fmt.Errorf("core: quorum system sized for %d replicas, group has %d",
			c.qs.Size(), len(c.replicas))
	}
	if c.bounded {
		if _, err := timestamp.NewCyclic(c.boundedDom.L); err != nil {
			return nil, fmt.Errorf("core: WithBoundedLabels(%d): %w", c.boundedDom.L, err)
		}
	}
	c.queryTargets = c.targetTable(c.qs.ContainsReadQuorum)
	c.fastTargets = c.targetTable(func(s quorum.Set) bool {
		return c.qs.ContainsReadQuorum(s) && c.qs.ContainsWriteQuorum(s)
	})
	if d, ok := c.ep.(transport.Dispatcher); ok {
		d.Dispatch(c.dispatch)
	}
	go c.demux()
	return c, nil
}

// ID returns the client's node identifier.
func (c *Client) ID() types.NodeID { return c.id }

// Metrics returns a snapshot of the client's operation counters.
func (c *Client) Metrics() MetricsSnapshot { return c.metrics.snapshot() }

// Latency returns a snapshot of the client's operation and phase latency
// histograms. Histograms are always on; only completed operations record.
func (c *Client) Latency() LatencySnapshot { return c.lat.snapshot() }

// ByzantineF returns the number of lying replicas the client's read
// validation tolerates (WithByzantine), 0 when validation is off.
func (c *Client) ByzantineF() int { return c.f }

// Suspects names the replicas this client holds evidence against (audit),
// with how many of each one's replies were such evidence. Empty in an
// honest run and whenever validation is off.
func (c *Client) Suspects() map[types.NodeID]int64 {
	out := make(map[types.NodeID]int64)
	for i := range c.suspicions {
		if n := c.suspicions[i].Load(); n > 0 {
			out[c.replicas[i]] = n
		}
	}
	return out
}

// ReadMode reports the client's read mode (WithReadMode).
func (c *Client) ReadMode() ReadMode { return c.readMode }

// Close shuts the client down, failing any in-flight operations.
func (c *Client) Close() {
	_ = c.ep.Close()
	<-c.done
}

// demux dispatches what the endpoint delivers on its Recv channel —
// everything on a substrate without transport.Dispatcher, otherwise only
// what arrived before the handler was installed — and marks the client done
// when the channel closes, which is after the endpoint's last dispatch call.
func (c *Client) demux() {
	defer close(c.done)
	for raw := range c.ep.Recv() {
		c.dispatch(raw)
	}
}

// dispatch routes one reply to the in-flight operation that is waiting for
// it, on the caller's goroutine. Safe for concurrent calls.
func (c *Client) dispatch(raw transport.Message) {
	m, err := decodeMessage(raw.Payload)
	if err != nil {
		c.metrics.badMsgs.Add(1)
		return
	}
	i, member := c.index[raw.From]
	if !member || m.Kind != KindReadReply && m.Kind != KindWriteAck {
		c.metrics.badMsgs.Add(1)
		return
	}
	// Any reply, a straggler's included, puts a silent replica back into
	// rotation.
	if bit := uint64(1) << i; c.silent.Load()&bit != 0 {
		c.silent.And(^bit)
	}
	m.fromReplica = raw.From
	c.pendMu.Lock()
	inbox, ok := c.pending[m.Op]
	c.pendMu.Unlock()
	if ok && m.Kind != inbox.reply {
		// A reply of the other kind answers no request this phase sent.
		c.metrics.badMsgs.Add(1)
		return
	}
	if !ok || !inbox.offer(i, m) {
		// A duplicate, or a straggler reply for a finished phase; the
		// protocol discards these by design.
		c.metrics.stragglers.Add(1)
	}
}

// adaptiveInterval caches one phase kind's derived retransmission interval
// together with the completed-phase count it was derived at.
type adaptiveInterval struct {
	interval atomic.Int64 // nanoseconds
	at       atomic.Int64
}

// opInbox collects one phase's replies on the goroutines that dispatch
// them: it counts the first reply from each replica and wakes the phase's
// goroutine once, with the reply that makes the repliers satisfy pred.
// From then on (or from stop) it counts nothing more.
type opInbox struct {
	reply  Kind // the reply kind the phase's request asks for
	pred   func(quorum.Set) bool
	start  time.Time
	notify chan struct{} // capacity 1: sent to once, on completion

	mu      sync.Mutex
	closed  bool
	set     quorum.Set // the replicas whose replies were counted
	replies []message
	// Reply offsets from start, kept only when tracing (rtts != nil): the
	// first and the latest counted reply, and each counted replica's.
	first, last time.Duration
	rtts        map[int64]time.Duration
}

// offer counts m, the reply of replica i, and reports whether it did: not
// when the phase is over or already counted i.
func (in *opInbox) offer(i int, m message) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed || in.set.Has(i) {
		return false
	}
	in.set = in.set.Add(i)
	in.replies = append(in.replies, m)
	if in.rtts != nil {
		in.last = time.Since(in.start)
		if len(in.replies) == 1 {
			in.first = in.last
		}
		in.rtts[int64(m.fromReplica)] = in.last
	}
	if in.pred(in.set) {
		in.closed = true
		in.notify <- struct{}{}
	}
	return true
}

// counted returns the replicas whose replies were counted so far; stop
// also closes the inbox, after which its fields no longer change.
func (in *opInbox) counted() quorum.Set {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.set
}

func (in *opInbox) stop() quorum.Set {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	return in.set
}

// opTrace is one client operation's trace context: trace is the id shared
// by every span and message the operation causes (0 = untraced), span the
// operation's root span id that phase spans parent to.
type opTrace struct {
	trace uint64
	span  uint64
}

// phase sends one request to the replicas the next rotation of table
// names (targets; nil asks every replica) and collects replies until the
// responder set satisfies pred. It returns the replies that formed the
// quorum (one per replica, duplicates discarded).
//
// ot and label feed the observability layer: completed phases record into
// the phase latency histograms, and — when a tracer is attached — emit a
// child span under the operation's root span, carrying the quorum size, the
// first/quorum-completing reply offsets, and every counted replica's reply
// RTT. When the operation is traced, the outgoing request is stamped with
// (ot.trace, phase span id) so replica and transport spans on the far side
// join the same trace.
func (c *Client) phase(ctx context.Context, req message, pred func(quorum.Set) bool, table []quorum.Set, ot opTrace, label string) ([]message, error) {
	defer phaseRegion(ctx, label)()
	op := c.opSeq.Add(1)
	req.Op = op
	var spanID uint64
	if c.tracer != nil {
		spanID = obs.NextID()
	}
	if ot.trace != 0 {
		req.Trace, req.Span = ot.trace, spanID
	}
	start := time.Now()
	inbox := &opInbox{
		reply: req.Kind.reply(), pred: pred, start: start, notify: make(chan struct{}, 1),
		replies: make([]message, 0, len(c.replicas)),
	}
	if c.tracer != nil {
		inbox.rtts = make(map[int64]time.Duration, len(c.replicas))
	}

	c.pendMu.Lock()
	c.pending[op] = inbox
	c.pendMu.Unlock()
	defer func() {
		c.pendMu.Lock()
		delete(c.pending, op)
		c.pendMu.Unlock()
	}()

	payload := req.encode()
	targets := c.targets(table)
	for i, rid := range c.replicas {
		if !targets.Has(i) {
			continue
		}
		if err := c.ep.Send(rid, payload); err != nil {
			return nil, fmt.Errorf("send to %v: %w", rid, err)
		}
		c.metrics.msgsSent.Add(1)
	}
	c.metrics.phases.Add(1)

	var retransmitCh <-chan time.Time
	if interval := c.retransmitInterval(req.Kind); interval > 0 {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		retransmitCh = ticker.C
	}

	fail := func(err error) ([]message, error) {
		c.emitPhase(ot, spanID, label, req.Reg, err, targets.Count(), inbox)
		return nil, err
	}
	for {
		select {
		case <-inbox.notify:
			c.recordPhase(req.Kind, time.Since(start))
			c.emitPhase(ot, spanID, label, req.Reg, nil, targets.Count(), inbox)
			return inbox.replies, nil
		case <-retransmitCh:
			// Mark the targets that have not answered silent, so later
			// phases ask around them, and re-send to every replica that has
			// not answered: a silent target must not stall the phase. Safe
			// because every protocol message is idempotent.
			answered := inbox.counted()
			c.silent.Or(uint64(targets &^ answered))
			targets = quorum.Full(len(c.replicas))
			for i, rid := range c.replicas {
				if answered.Has(i) {
					continue
				}
				if err := c.ep.Send(rid, payload); err != nil {
					continue
				}
				c.metrics.msgsSent.Add(1)
				c.metrics.retransmits.Add(1)
			}
		case <-ctx.Done():
			return fail(fmt.Errorf("%w: %s phase got %d/%d replies: %v",
				types.ErrNoQuorum, req.Kind, inbox.stop().Count(), len(c.replicas), ctx.Err()))
		case <-c.done:
			// The client was closed under us: no more replies can arrive.
			inbox.stop()
			return fail(fmt.Errorf("%s phase: %w", req.Kind, types.ErrClosed))
		}
	}
}

// retransmitInterval returns the rebroadcast period for a phase, or 0 for
// no retransmission. The interval is derived from the client's own
// completed-phase latency histogram — 3x the observed p99, clamped to
// [floor, ceiling] — so it sits safely above the healthy round-trip time
// yet reacts within a fraction of a second when a message is lost. Until
// enough phases have completed to trust the histogram, and whenever the
// bounds leave no room (a fixed interval), the floor is used: a spurious
// retransmission is harmless (all protocol messages are idempotent), a late
// one costs liveness. The derivation walks the whole histogram, so it is
// redone only every adaptiveRefreshEvery completed phases (or once their
// number has doubled); in between a phase pays three atomic loads.
func (c *Client) retransmitInterval(kind Kind) time.Duration {
	if c.rtFloor <= 0 {
		return 0
	}
	hist, cache := &c.lat.phaseQuery, &c.rtQuery
	if kind == KindWrite {
		hist, cache = &c.lat.phaseUpdate, &c.rtUpdate
	}
	n := hist.Count()
	if n < adaptiveMinSamples || c.rtCeil <= c.rtFloor {
		return c.rtFloor
	}
	if at := cache.at.Load(); at > 0 && n-at < adaptiveRefreshEvery && n < 2*at {
		return time.Duration(cache.interval.Load())
	}
	d := min(max(3*hist.Quantile(0.99), c.rtFloor), c.rtCeil)
	// interval before at: a concurrent reader that sees the new count also
	// sees an interval at least that fresh.
	cache.interval.Store(int64(d))
	cache.at.Store(n)
	return d
}

// recordPhase files a completed phase's latency under its kind's histogram:
// updates under phaseUpdate, both query kinds under phaseQuery.
func (c *Client) recordPhase(kind Kind, d time.Duration) {
	if kind == KindWrite {
		c.lat.phaseUpdate.Record(d)
	} else {
		c.lat.phaseQuery.Record(d)
	}
}

// emitPhase sends a phase child span to the tracer, if one is attached. The
// phase's inbox must be closed.
func (c *Client) emitPhase(ot opTrace, id uint64, label, reg string, err error, targets int, in *opInbox) {
	if c.tracer == nil {
		return
	}
	sp := obs.Span{
		Trace: ot.trace, ID: id, Parent: ot.span,
		Kind: "phase", Phase: label, Reg: reg, Node: int64(c.id),
		Start: in.start, Dur: time.Since(in.start),
		Targets: targets, Quorum: in.set.Count(),
		FirstReply: in.first, LastReply: in.last, ReplicaRTT: in.rtts,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	c.tracer.Emit(sp)
}

// beginOp allocates an operation's trace context, or the zero opTrace when
// tracing is off.
func (c *Client) beginOp() opTrace {
	if c.tracer == nil {
		return opTrace{}
	}
	return opTrace{trace: obs.NewTraceID(), span: obs.NextID()}
}

// endOp emits the operation's root span.
func (c *Client) endOp(ot opTrace, kind, reg string, start time.Time, err error) {
	if c.tracer == nil {
		return
	}
	sp := obs.Span{
		Trace: ot.trace, ID: ot.span, Kind: kind, Reg: reg, Node: int64(c.id),
		Start: start, Dur: time.Since(start),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	c.tracer.Emit(sp)
}

// targetTable returns the rotating target sets of a query phase that
// completes on pred, one per rotation start: a minimal set satisfying pred,
// found by dropping replicas from the back of the rotated group while pred
// still holds. It returns nil (ask everyone) when retransmission is off,
// since nothing would then widen a phase whose targets cannot answer, and
// under bounded labels, where a replica lagging more than the window behind
// breaks the comparison (DESIGN.md §2): a rotation asks it in most phases,
// a broadcast counts it only when it wins the race to the quorum.
func (c *Client) targetTable(pred func(quorum.Set) bool) []quorum.Set {
	n := len(c.replicas)
	if c.rtFloor <= 0 || c.bounded {
		return nil
	}
	table := make([]quorum.Set, n)
	for s := range table {
		set := quorum.Full(n)
		for pos := n - 1; pos >= 0; pos-- {
			if without := set &^ (1 << ((s + pos) % n)); pred(without) {
				set = without
			}
		}
		table[s] = set
	}
	return table
}

// targets returns the replicas a phase asks: the next rotation of table
// that avoids every silent replica, plus the silent replicas themselves,
// or everyone when table is nil or no rotation avoids them. The phase can
// complete without a silent replica, yet asks it, so one that has
// recovered answers and comes back into rotation whatever the traffic.
func (c *Client) targets(table []quorum.Set) quorum.Set {
	silent := quorum.Set(c.silent.Load())
	for range table {
		if set := table[c.rrNext.Add(1)%uint64(len(table))]; set&silent == 0 {
			return set | silent
		}
	}
	return quorum.Full(len(c.replicas))
}

// newest returns the max-tag pair among replies under the client's order.
func (c *Client) newest(replies []message) (Tag, types.Value, error) {
	best := Tag{}
	var val types.Value
	for _, m := range replies {
		cmp, err := m.Tag.compare(best)
		if err != nil {
			c.metrics.orderViolations.Add(1)
			return Tag{}, nil, fmt.Errorf("core: cannot order replica tags: %w", err)
		}
		if cmp > 0 {
			best = m.Tag
			val = m.Val
		}
	}
	return best, val, nil
}

// vouch partitions replies by (tag, value) pair: accepted holds one
// representative per pair reported identically by at least f+1 distinct
// replicas, unsupported one per pair below that bar. At most f replicas
// are Byzantine, so every accepted pair was reported by a correct replica
// and is a genuine protocol value; an unsupported pair may be an honest
// in-flight write seen at few replicas — or a lie.
func (c *Client) vouch(replies []message) (accepted, unsupported []message) {
	reps := make([]message, 0, len(replies))
	counts := make([]int, 0, len(replies))
	for _, m := range replies {
		i := 0
		for i < len(reps) && (reps[i].Tag != m.Tag || !bytes.Equal(reps[i].Val, m.Val)) {
			i++
		}
		if i == len(reps) {
			reps = append(reps, m)
			counts = append(counts, 0)
		}
		counts[i]++
	}
	for i, m := range reps {
		if counts[i] > c.f {
			accepted = append(accepted, m)
		} else {
			unsupported = append(unsupported, m)
		}
	}
	return accepted, unsupported
}

// aheadOf reports whether any of replies carries a tag strictly newer than
// tag. Unorderable tags (bounded-label windows) count as not newer: they
// already increment orderViolations elsewhere.
func (c *Client) aheadOf(replies []message, tag Tag) bool {
	for _, m := range replies {
		if cmp, err := m.Tag.compare(tag); err == nil && cmp > 0 {
			return true
		}
	}
	return false
}

// lastSeen returns a copy of the tags each replica last reported to this
// client for reg (indexed like c.replicas), or nil when there are none or
// audit is off. A query must take it before it sends: only then does every
// entry predate the replica's answer.
func (c *Client) lastSeen(reg string) []Tag {
	if c.seen == nil {
		return nil
	}
	c.seenMu.Lock()
	defer c.seenMu.Unlock()
	return append([]Tag(nil), c.seen[reg]...)
}

// audit checks one Byzantine query round for evidence that no honest
// replica can produce, charges each piece to the replica that sent it, and
// then records the round's tags as each replier's latest report. The
// evidence is:
//   - the tag of a vouched pair with another value: a tag names exactly one
//     write (nextTag), and f+1 identical echoes make the vouched value that
//     write's;
//   - a tag older than one the same replica reported to this client before
//     the query was sent (prior): an honest replica's tag never goes back
//     (invariant P1), even across a restart, since it installs a pair only
//     after its WAL has synced it.
//
// A pair merely newer than the vouched max is not evidence: it may be an
// honest write still in flight. After a tag query the vouched pair's value is
// nil, as every honest reply's is, so the first rule names a reply that
// echoes the vouched tag with a value.
func (c *Client) audit(reg string, prior []Tag, replies, accepted []message) {
	if c.seen == nil {
		return
	}
	for _, m := range replies {
		i := c.index[m.fromReplica]
		lied := false
		if i < len(prior) {
			cmp, err := m.Tag.compare(prior[i])
			lied = err == nil && cmp < 0
		}
		for _, a := range accepted {
			lied = lied || (a.Tag == m.Tag && !bytes.Equal(a.Val, m.Val))
		}
		if lied {
			c.suspicions[i].Add(1)
			c.metrics.byzSuspicions.Add(1)
		}
	}
	c.seenMu.Lock()
	seen := c.seen[reg]
	if seen == nil {
		seen = make([]Tag, len(c.replicas))
		c.seen[reg] = seen
	}
	for _, m := range replies {
		seen[c.index[m.fromReplica]] = m.Tag
	}
	c.seenMu.Unlock()
}

// queryValidated runs the query phase that starts reads and multi-writer
// writes and returns the (tag, value) pair the operation should adopt,
// plus the replies of the phase round that produced it (the fast path's
// evidence, see atWriteQuorum) and how many quorum rounds it paid (1 plus
// any masking retries — the read path's ReadRounds accounting).
//
// kind is KindReadQuery when the caller adopts the value, KindTagQuery when
// it needs the newest tag only (a write, which ignores the value). Honest
// replies to a tag query all carry a nil value, so such a round vouches on
// tags alone.
//
// Plain mode (f == 0) is the paper's rule: one phase, newest pair wins.
// WithByzantine(f > 0) adopts the newest pair reported identically by
// >= f+1 replicas (vouch), and re-queries only while write concurrency
// splits the vote below that bar. A pair newer than that but without f+1
// support is an honest write still in flight or a fabrication, and in an
// asynchronous system no bounded number of re-queries tells the two apart.
// So the query adopts the vouched pair either way, in one round, and only
// counts the unconfirmed pair (byzUnconfirmed, a rate, not an accusation).
// Fabricated tags never reach the write-back phase (DESIGN.md invariant
// V2), and suspicion rests on evidence alone (audit).
func (c *Client) queryValidated(ctx context.Context, kind Kind, reg string, table []quorum.Set, ot opTrace) (Tag, types.Value, []message, int, error) {
	for rounds := 1; ; rounds++ {
		prior := c.lastSeen(reg)
		replies, err := c.phase(ctx, message{Kind: kind, Reg: reg}, c.qs.ContainsReadQuorum, table, ot, "query")
		if err != nil {
			return Tag{}, nil, nil, rounds, err
		}
		if c.f == 0 {
			best, val, err := c.newest(replies)
			if err != nil {
				return Tag{}, nil, nil, rounds, err
			}
			return best, val, replies, rounds, nil
		}
		accepted, unsupported := c.vouch(replies)
		c.audit(reg, prior, replies, accepted)
		if len(accepted) == 0 {
			// No pair had f+1 support (write concurrency split the vote);
			// query again.
			c.metrics.maskRetries.Add(1)
			continue
		}
		best, val, err := c.newest(accepted)
		if err != nil {
			return Tag{}, nil, nil, rounds, err
		}
		if c.aheadOf(unsupported, best) {
			c.metrics.byzUnconfirmed.Add(1)
		}
		return best, val, replies, rounds, nil
	}
}

// Read performs the atomic read: query a read quorum, pick the newest pair,
// write it back to a write quorum, return the value. A register that was
// never written reads as nil.
func (c *Client) Read(ctx context.Context, reg string) (types.Value, error) {
	start := time.Now()
	c.hot.Offer(reg)
	ot := c.beginOp()
	ctx, endTask := beginRuntimeTask(ctx, "abd.read", ot)
	defer endTask()
	val, err := c.read(ctx, reg, ot)
	if err == nil {
		c.lat.read.Record(time.Since(start))
	} else {
		c.metrics.readFails.Add(1)
	}
	c.endOp(ot, "read", reg, start, err)
	return val, err
}

func (c *Client) read(ctx context.Context, reg string, ot opTrace) (types.Value, error) {
	// A ReadAtomic query asks a write quorum too, so that its holders can
	// prove the fast path.
	table := c.queryTargets
	if c.readMode == ReadAtomic {
		table = c.fastTargets
	}
	best, val, replies, rounds, err := c.queryValidated(ctx, KindReadQuery, reg, table, ot)
	if err != nil {
		return nil, fmt.Errorf("read %q: %w", reg, err)
	}
	c.metrics.reads.Add(1)
	switch {
	case !best.Valid:
		// Initial state everywhere: nothing to propagate.
		val = nil
	case c.readMode == ReadRegular:
		c.metrics.writeBacksSkipped.Add(1)
	case c.readMode == ReadAtomic && c.atWriteQuorum(best, val, replies):
		// Fast path (DESIGN.md §10): the write-back would be a no-op, so the
		// read completes in the one round already paid.
		c.metrics.fastPathReads.Add(1)
		c.metrics.writeBacksSkipped.Add(1)
	default:
		if err := c.install(ctx, reg, best, val, ot, "write-back"); err != nil {
			return nil, fmt.Errorf("read %q write-back: %w", reg, err)
		}
		c.metrics.writeBacks.Add(1)
		rounds++
	}
	// Like the latency histograms, the round count records only on success.
	c.metrics.readRounds.Add(int64(rounds))
	c.lat.readRounds.Record(time.Duration(rounds))
	return val, nil
}

// atWriteQuorum reports whether the query round already paid proves the
// pair (best, val) is stored at a full write quorum — the one fact the
// read's write-back exists to establish (DESIGN.md §10): the holders
// (repliers echoing exactly the tag and the value) contain a write quorum.
// It runs only after queryValidated, so under WithByzantine best is the
// f+1-vouched pair. A liar adds at most itself to the holders: a masking
// write quorum of them meets every later quorum in >= 2f+1 replicas, >= f+1
// of them honest holders — lying costs hits, never mints one.
func (c *Client) atWriteQuorum(best Tag, val types.Value, replies []message) bool {
	var holders quorum.Set
	for _, m := range replies {
		if m.Tag == best && bytes.Equal(m.Val, val) {
			holders = holders.Add(c.index[m.fromReplica])
		}
	}
	return c.qs.ContainsWriteQuorum(holders)
}

// Write performs the atomic write. In multi-writer mode (the default) it
// first queries a read quorum for the newest timestamp (a tag query: the
// replies carry no values) and then broadcasts a tag above it; in
// single-writer mode it needs no query phase. Either way the tag comes from
// the client's per-register counter (nextTag).
func (c *Client) Write(ctx context.Context, reg string, val types.Value) error {
	start := time.Now()
	c.hot.Offer(reg)
	ot := c.beginOp()
	ctx, endTask := beginRuntimeTask(ctx, "abd.write", ot)
	defer endTask()
	err := c.write(ctx, reg, val, ot)
	if err == nil {
		c.lat.write.Record(time.Since(start))
	} else {
		c.metrics.writeFails.Add(1)
	}
	c.endOp(ot, "write", reg, start, err)
	return err
}

func (c *Client) write(ctx context.Context, reg string, val types.Value, ot opTrace) error {
	tag, err := c.nextTag(ctx, reg, ot)
	if err == nil {
		err = c.install(ctx, reg, tag, val, ot, "update")
	}
	if err != nil {
		return fmt.Errorf("write %q: %w", reg, err)
	}
	c.metrics.writes.Add(1)
	return nil
}

// install is the step a write, a read's write-back and Propagate share:
// send (tag, val) to every replica and wait for a write quorum of acks.
// Updates always go to all: the fast path needs every replica to get every
// update.
func (c *Client) install(ctx context.Context, reg string, tag Tag, val types.Value, ot opTrace, label string) error {
	req := message{Kind: KindWrite, Reg: reg, Tag: tag, Val: val}
	_, err := c.phase(ctx, req, c.qs.ContainsWriteQuorum, nil, ot, label)
	return err
}

// nextTag chooses the tag for a new write. Both writer modes issue it from
// the client's per-register counter (NextTagAfter) and differ only in the
// floor it must exceed. A single writer's floor is 0: its own counter is the
// whole point of that mode, no query phase, one round trip per write. A
// multi-writer client first learns the newest timestamp from a read quorum,
// and exceeds it; its query asks for tags only (KindTagQuery), as the
// write's first phase does in the paper and in arXiv:1702.08176. Write
// quorums must pairwise intersect for this to observe every completed write
// (quorum.VerifyWriteIntersection). The validated
// query also keeps a fabricated max-tag out of the successor computation: a
// liar must not get to exhaust the timestamp space or steer honest writers'
// ordering. A query that finds the register under bounded labels fails the
// write (checkWindow).
func (c *Client) nextTag(ctx context.Context, reg string, ot opTrace) (Tag, error) {
	if c.bounded {
		return c.nextBoundedTag(ctx, reg, ot)
	}
	var floor Tag
	if !c.singleWriter {
		best, _, _, _, err := c.queryValidated(ctx, KindTagQuery, reg, c.queryTargets, ot)
		if err != nil {
			return Tag{}, err
		}
		if err := c.checkWindow(best, 0); err != nil {
			return Tag{}, err
		}
		floor = best
	}
	return c.NextTagAfter(reg, floor), nil
}

// checkWindow fails a write whose query found the register under a label
// window other than the one the client writes: the replicas would refuse
// its update as an order violation, so the write fails now, not at its
// deadline.
func (c *Client) checkWindow(found Tag, window int64) error {
	if !found.Valid || found.Window == window {
		return nil
	}
	c.metrics.orderViolations.Add(1)
	_, err := found.compare(Tag{Valid: true, Window: window})
	return fmt.Errorf("core: cannot order replica tags: %w", err)
}

// nextBoundedTag implements the bounded-label write: collect the labels
// live at a read quorum (plus the writer's own last label) and pick a
// dominating label from the cyclic domain. tagMu is held from reading the
// last label through storing the new one, so concurrent writes through one
// client each dominate the label issued before them and never share one.
func (c *Client) nextBoundedTag(ctx context.Context, reg string, ot opTrace) (Tag, error) {
	replies, err := c.phase(ctx, message{Kind: KindTagQuery, Reg: reg}, c.qs.ContainsReadQuorum, c.queryTargets, ot, "query")
	if err != nil {
		return Tag{}, err
	}
	live := make([]int64, 0, len(replies)+1)
	for _, m := range replies {
		if err := c.checkWindow(m.Tag, c.boundedDom.L); err != nil {
			return Tag{}, err
		}
		if m.Tag.Valid {
			live = append(live, m.Tag.Label)
		}
	}
	c.tagMu.Lock()
	defer c.tagMu.Unlock()
	if last, ok := c.swLabel[reg]; ok {
		live = append(live, last)
	}
	label, err := c.boundedDom.Dominating(live)
	if err != nil {
		c.metrics.orderViolations.Add(1)
		return Tag{}, err
	}
	// Record the label immediately: even if the broadcast fails part-way,
	// some replicas may have adopted it, so it is live and the next write
	// must dominate it.
	c.swLabel[reg] = label
	return Tag{Valid: true, Window: c.boundedDom.L, Label: label}, nil
}

// QueryMax runs a single query phase: it returns the newest (tag, value)
// pair found at a read quorum, without the read's write-back. It is the
// building block internal/reconfig uses to read across configurations; a
// bare QueryMax is only a regular read, not an atomic one.
func (c *Client) QueryMax(ctx context.Context, reg string) (Tag, types.Value, error) {
	tag, val, _, _, err := c.queryValidated(ctx, KindReadQuery, reg, c.queryTargets, opTrace{})
	if err != nil {
		return Tag{}, nil, fmt.Errorf("query %q: %w", reg, err)
	}
	return tag, val, nil
}

// QueryTag runs a single tag-only query phase (KindTagQuery): it returns
// the newest tag found at a read quorum, and the replicas ship no values.
// internal/reconfig orders its writes with it.
func (c *Client) QueryTag(ctx context.Context, reg string) (Tag, error) {
	tag, _, _, _, err := c.queryValidated(ctx, KindTagQuery, reg, c.queryTargets, opTrace{})
	if err != nil {
		return Tag{}, fmt.Errorf("query %q: %w", reg, err)
	}
	return tag, nil
}

// Propagate installs (tag, value) at a write quorum, exactly like a read's
// write-back phase: replicas adopt the pair iff it is newer than what they
// store. Used for cross-configuration state transfer and repair tools.
func (c *Client) Propagate(ctx context.Context, reg string, tag Tag, val types.Value) error {
	if err := c.install(ctx, reg, tag, val, opTrace{}, "update"); err != nil {
		return fmt.Errorf("propagate %q: %w", reg, err)
	}
	return nil
}

// NextTagAfter returns a tag above observed that this client has never
// issued for reg: sequence max(last issued, observed's) + 1 from the
// client's per-register counter, which every unbounded write tag comes
// from (nextTag). The counter is what keeps two concurrent writes through
// one client that observed the same tag from naming different values with
// one tag. A sequence number is consumed even if the write later fails —
// timestamps need only be monotone, not dense. internal/reconfig calls it
// directly to order writes that observed state across several
// configurations.
func (c *Client) NextTagAfter(reg string, observed Tag) Tag {
	c.tagMu.Lock()
	seq := max(c.tagSeq[reg], observed.TS.Seq) + 1
	c.tagSeq[reg] = seq
	c.tagMu.Unlock()
	return Tag{Valid: true, TS: timestamp.TS{Seq: seq, Writer: c.id}}
}

// Register returns a handle binding this client to one named register.
// The result's dynamic type is *core.Register (Name reports the binding);
// the interface return is what lets Client, reconfig.Client, and
// shard.Store share the types.RW contract.
func (c *Client) Register(name string) types.Register {
	return &Register{c: c, name: name}
}

var _ types.RW = (*Client)(nil)

// Register is a convenience handle for a single named register.
type Register struct {
	c    *Client
	name string
}

// Name returns the register's name.
func (r *Register) Name() string { return r.name }

// Read reads the register.
func (r *Register) Read(ctx context.Context) (types.Value, error) {
	return r.c.Read(ctx, r.name)
}

// Write writes the register.
func (r *Register) Write(ctx context.Context, val types.Value) error {
	return r.c.Write(ctx, r.name, val)
}
