package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
)

// regEntry is a replica's copy of one register. val is a view of the update
// payload it arrived in, which the replica owns (DESIGN.md §6).
type regEntry struct {
	tag Tag
	val types.Value
}

// Replica is one processor's server side of the emulation: it stores a
// timestamped copy of every register and answers queries and update
// requests. Its behaviour is exactly the paper's: reply to a query with the
// stored pair (to a tag query with the tag alone); on an update, adopt the
// incoming pair if its timestamp is newer, and acknowledge either way. The replica holds no mode: the tags
// carry their label window (Tag.Window), and an update whose tag cannot be
// ordered against the stored one — another window, or bounded labels out of
// window — is counted as an order violation and not acknowledged, since an
// ack would claim a write quorum for a pair the replica did not keep.
//
// Internally the replica is a two-stage pipeline: dispatch decodes an
// inbound request and answers a read query immediately (it only takes the
// state mutex for a map lookup) — on the goroutine that received the
// message, which over tcpnet is the connection's reader, one per client —
// while updates flow through a bounded batch channel into a group-commit
// loop that drains up to batchMax pending writes, appends all their WAL
// records, fsyncs once, installs the adopted state, and acks the whole
// batch. A slow fsync therefore stalls writers, never readers, and under
// write load the fsync cost amortizes across the batch. The commit loop
// holds no P while the disk works — on 64-bit Linux it parks on the
// runtime's poller until an asynchronous sync completes, elsewhere it is in
// an ordinary system call (datasync_*.go) — so neither a query, even with
// GOMAXPROCS 1, nor a GC's stop-the-world waits for a sync.
type Replica struct {
	id types.NodeID
	ep transport.Endpoint

	mu   sync.Mutex
	regs map[string]regEntry

	// commitMu serializes group commits with explicit/automatic log
	// compaction, so a compaction can never snapshot regs between a
	// batch's WAL append and its install (which would drop acked records
	// from the rewritten log).
	commitMu sync.Mutex

	// persist, when non-nil, logs every adoption before it is acknowledged
	// (crash-recovery extension; see NewPersistentReplica).
	persist *persister

	fsyncDelay time.Duration // extra wall-clock cost per WAL fsync (WithFsyncDelay)
	writeCh    chan inboundWrite

	started atomic.Bool
	done    chan struct{}

	tracer obs.Tracer // nil = tracing disabled (the default)

	queries      atomic.Int64 // KindReadQuery and KindTagQuery handled
	updates      atomic.Int64 // KindWrite handled
	adoptions    atomic.Int64 // updates that replaced the stored pair
	staleRejects atomic.Int64 // updates carrying a tag at or below the stored one
	violations   atomic.Int64 // updates whose tag could not be ordered (Tag.compare)
	badMsgs      atomic.Int64 // undecodable payloads
	batches      atomic.Int64 // group commits executed

	batchSizes obs.Histogram // writes per group commit (a count, not ns)
}

// inboundWrite is one update waiting in the group-commit channel.
type inboundWrite struct {
	from types.NodeID
	m    message
}

// batchMax is the group-commit drain limit: how many pending writes one
// WAL append + fsync may cover.
const batchMax = 64

// ReplicaOption configures a replica.
type ReplicaOption func(*Replica)

// WithReplicaTracer attaches a tracer: every traced request (one carrying a
// propagated trace context) emits a "handle" span for the handler interval,
// with "wal-append" (the fsync) and "stale-reject" child spans as they
// occur. Untraced requests emit nothing, so an idle tracer costs only the
// per-message nil check.
func WithReplicaTracer(t obs.Tracer) ReplicaOption {
	return func(r *Replica) { r.tracer = t }
}

// WithFsyncDelay makes every WAL fsync additionally cost d of wall-clock
// time, stalling the commit loop exactly as a real device sync would.
// Benchmarks run their WALs on tmpfs, where fsync is nearly free and the
// write path ends up CPU-bound — hiding both what group commit amortizes
// and what sharding multiplies. This knob restores the realistic bottleneck
// (0.5–5ms per sync on commodity SSD/HDD). No effect on a non-persistent
// replica; d <= 0 is a no-op.
func WithFsyncDelay(d time.Duration) ReplicaOption {
	return func(r *Replica) {
		if d > 0 {
			r.fsyncDelay = d
		}
	}
}

// NewReplica creates a replica attached to ep. The replica takes ownership
// of the endpoint: Stop closes it.
func NewReplica(id types.NodeID, ep transport.Endpoint, opts ...ReplicaOption) *Replica {
	r := &Replica{
		id:   id,
		ep:   ep,
		regs: make(map[string]regEntry),
		done: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(r)
	}
	// The channel holds a few batches' worth of writes: deep enough that an
	// in-progress fsync rarely blocks dispatch, bounded so a stalled disk
	// backpressures writers instead of buffering without limit.
	r.writeCh = make(chan inboundWrite, 4*batchMax)
	return r
}

// ID returns the replica's node identifier.
func (r *Replica) ID() types.NodeID { return r.id }

// Start launches the receive and group-commit loops and, on an endpoint
// that can (transport.Dispatcher), has messages dispatched on the goroutine
// that received them. It is a no-op if already started.
func (r *Replica) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	if d, ok := r.ep.(transport.Dispatcher); ok {
		d.Dispatch(r.dispatch)
	}
	go r.recvLoop()
	go r.commitLoop()
}

// Stop closes the replica's endpoint and waits for the message loop to
// exit. Safe to call multiple times and before Start.
func (r *Replica) Stop() {
	if r.started.CompareAndSwap(false, true) {
		// Never started: close the endpoint and mark the loop done.
		close(r.done)
		_ = r.ep.Close()
		r.closePersist()
		return
	}
	_ = r.ep.Close()
	<-r.done
	r.closePersist()
}

// CompactLog rewrites the persistence log down to one record per register
// (a no-op for non-persistent replicas). Compaction also runs
// automatically every persistCompactThreshold appends; this entry point
// lets a graceful shutdown leave the smallest possible log for the next
// start to replay. It serializes with group commits so the rewritten log
// can never miss an acked batch.
func (r *Replica) CompactLog() error {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	return r.compactLocked()
}

// compactLocked rewrites the log from a snapshot of the store. The caller
// holds commitMu, which is what keeps the snapshot complete (no batch can
// sit between its WAL append and its install); the state mutex is held for
// the snapshot only, so queries keep flowing while the rewrite and its
// fsync run.
func (r *Replica) compactLocked() error {
	r.mu.Lock()
	persist := r.persist
	if persist == nil {
		r.mu.Unlock()
		return nil
	}
	recs := make([]record, 0, len(r.regs))
	for reg, e := range r.regs {
		recs = append(recs, record{reg: reg, tag: e.tag, val: e.val})
	}
	r.mu.Unlock()
	return persist.compact(recs)
}

func (r *Replica) closePersist() {
	r.commitMu.Lock() // never close the log under a running compaction
	defer r.commitMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.persist != nil {
		_ = r.persist.close()
		r.persist = nil
	}
}

// recvLoop dispatches what the endpoint delivers on its Recv channel:
// everything on a substrate without transport.Dispatcher, otherwise only
// what arrived before the handler was installed. Either way the channel's
// close is the shutdown signal, and it comes after the endpoint's last
// dispatch call has returned — so closing writeCh here can never race a
// send in dispatch.
func (r *Replica) recvLoop() {
	defer close(r.writeCh)
	for raw := range r.ep.Recv() {
		r.dispatch(raw)
	}
}

// dispatch handles one inbound message on the caller's goroutine: it
// decodes the request, serves a read query inline (a map lookup under the
// state mutex, then the reply), and feeds an update into the bounded batch
// channel. It is safe for concurrent calls. When the channel is full — the
// disk cannot keep up — dispatch blocks, backpressuring the connection the
// update came in on rather than buffering writes without limit; queries on
// other connections keep being answered.
func (r *Replica) dispatch(raw transport.Message) {
	m, err := decodeMessage(raw.Payload)
	if err != nil {
		r.badMsgs.Add(1)
		return
	}
	switch m.Kind {
	case KindReadQuery, KindTagQuery:
		r.handleQuery(raw.From, m)
	case KindWrite:
		r.writeCh <- inboundWrite{from: raw.From, m: m}
	default:
		// Replies addressed to a client that happens to share our node
		// id are not ours to handle; drop them.
		r.badMsgs.Add(1)
	}
}

// commitLoop drains the batch channel and group-commits: each iteration
// takes everything pending (up to batchMax) and runs it through one
// classify → WAL append+fsync → install → ack cycle. Writes still queued
// when the endpoint closes are committed before the loop exits, so Stop
// never strands an accepted update.
func (r *Replica) commitLoop() {
	defer close(r.done)
	batch := make([]inboundWrite, 0, batchMax)
	for w := range r.writeCh {
		batch = append(batch[:0], w)
	drain:
		for len(batch) < batchMax {
			select {
			case w2, ok := <-r.writeCh:
				if !ok {
					break drain
				}
				batch = append(batch, w2)
			default:
				break drain
			}
		}
		r.commitBatch(batch)
	}
}

// beginHandle starts the handler span for a traced request, returning its
// start time and span id — both zero when the request is untraced or no
// tracer is attached, which disables every emit downstream.
func (r *Replica) beginHandle(m message) (time.Time, uint64) {
	if r.tracer == nil || m.Trace == 0 {
		return time.Time{}, 0
	}
	return time.Now(), obs.NextID()
}

// endHandle emits the handler span (id 0 = request untraced, no-op). The
// span parents to the client's phase span carried by the request, so the
// stitched tree reads op → phase → handle.
func (r *Replica) endHandle(m message, phase string, start time.Time, id uint64, err error) {
	if id == 0 {
		return
	}
	sp := obs.Span{
		Trace: m.Trace, ID: id, Parent: m.Span,
		Kind: "handle", Phase: phase, Reg: m.Reg, Node: int64(r.id),
		Start: start, Dur: time.Since(start),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	r.tracer.Emit(sp)
}

// handleQuery answers a query with the stored pair, or with the stored tag
// and a nil value when the query asks for the tag only (KindTagQuery).
func (r *Replica) handleQuery(from types.NodeID, m message) {
	r.queries.Add(1)
	start, handleID := r.beginHandle(m)
	r.mu.Lock()
	e := r.regs[m.Reg]
	r.mu.Unlock()
	if m.Kind == KindTagQuery {
		e.val = nil
	}

	// The reply echoes the trace and names the handle span as its span, so
	// the reply leg's transport spans parent to the handler rather than to
	// the client's phase — separating request network from reply network.
	reply := message{Kind: KindReadReply, Op: m.Op, Reg: m.Reg, Tag: e.tag, Val: e.val,
		Trace: m.Trace, Span: handleID}
	r.endHandle(m, "query", start, handleID, nil)
	_ = r.ep.Send(from, reply.encode())
}

// commitBatch runs one group commit of at most batchMax writes. Adoption
// decisions are made against a staging view (current state plus earlier
// adoptions in the same batch), so intra-batch ordering matches what serial
// handling would have produced.
// All adopted records hit the WAL with one append and one fsync, and only
// then is the staged state installed and the batch acked — a register's
// visible state is always durable (a query can never leak a pair the next
// restart would forget), and an acked update always is too. A WAL failure
// acks nothing: every classification in the batch was made against staging
// that never became real, so the safe move is to go silent, which clients
// experience as a crash.
func (r *Replica) commitBatch(batch []inboundWrite) {
	r.batches.Add(1)
	r.batchSizes.Record(time.Duration(len(batch)))

	var (
		starts    [batchMax]time.Time
		handleIDs [batchMax]uint64
		adopted   [batchMax]bool
		staged    [batchMax]record
		refused   []error // per write, why its tag was unorderable (nil: none was)
	)
	recs := staged[:0] // the batch's adoptions, in order

	r.commitMu.Lock()
	r.mu.Lock()
	for i, w := range batch {
		m := w.m
		r.updates.Add(1)
		starts[i], handleIDs[i] = r.beginHandle(m)
		cmp, err := m.Tag.compare(r.stagedTag(recs, m.Reg))
		switch {
		case err != nil:
			// Another label window, or bounded labels out of window:
			// either ordering could be wrong, so neither adopt nor ack,
			// and surface via the counter. See DESIGN.md §2 on the
			// bounded-staleness assumption.
			r.violations.Add(1)
			if refused == nil {
				refused = make([]error, len(batch))
			}
			refused[i] = err
		case cmp > 0:
			r.adoptions.Add(1)
			adopted[i] = true
			recs = append(recs, record{reg: m.Reg, tag: m.Tag, val: m.Val})
		default:
			// Stale or duplicate update: the stored (or already staged)
			// pair is at least as new. Normal under read write-backs and
			// retransmission, but the rate is a direct measure of write
			// contention.
			r.staleRejects.Add(1)
			if handleIDs[i] != 0 {
				r.tracer.Emit(obs.Span{
					Trace: m.Trace, ID: obs.NextID(), Parent: handleIDs[i],
					Kind: "stale-reject", Phase: "update", Reg: m.Reg, Node: int64(r.id),
					Start: time.Now(),
				})
			}
		}
	}
	persist := r.persist
	r.mu.Unlock()

	// Log (and fsync, once for the whole batch) before acking: an
	// acknowledged update must survive a crash-recovery cycle. The state
	// mutex is NOT held here — queries keep flowing while the disk works.
	var perr error
	if persist != nil && len(recs) > 0 {
		walStart := time.Now()
		perr = persist.appendBatch(recs)
		walDur := time.Since(walStart)
		for i, w := range batch {
			if adopted[i] && handleIDs[i] != 0 {
				r.tracer.Emit(obs.Span{
					Trace: w.m.Trace, ID: obs.NextID(), Parent: handleIDs[i],
					Kind: "wal-append", Phase: "update", Reg: w.m.Reg, Node: int64(r.id),
					Start: walStart, Dur: walDur,
				})
			}
		}
	}
	if perr == nil {
		r.mu.Lock()
		for _, rec := range recs {
			r.regs[rec.reg] = regEntry{tag: rec.tag, val: rec.val}
		}
		r.mu.Unlock()
		if persist != nil && persist.recordCount() >= persistCompactThreshold {
			// A compaction that fails leaves the old log in use, and the
			// count past the threshold: the next commit tries again.
			_ = r.compactLocked()
		}
	}
	r.commitMu.Unlock()

	for i, w := range batch {
		m := w.m
		err := perr
		if err == nil && refused != nil {
			err = refused[i]
		}
		if err != nil {
			r.endHandle(m, "update", starts[i], handleIDs[i], err)
			continue
		}
		ack := message{Kind: KindWriteAck, Op: m.Op, Reg: m.Reg,
			Trace: m.Trace, Span: handleIDs[i]}
		r.endHandle(m, "update", starts[i], handleIDs[i], nil)
		_ = r.ep.Send(w.from, ack.encode())
	}
}

// stagedTag returns reg's tag as a batch sees it: from the batch's newest
// adoption of reg so far, else from the store. Called under mu.
func (r *Replica) stagedTag(recs []record, reg string) Tag {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].reg == reg {
			return recs[i].tag
		}
	}
	return r.regs[reg].tag
}

// State returns the replica's stored pair for a register, for tests and
// inspection tools. The value is a copy.
func (r *Replica) State(reg string) (Tag, types.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.regs[reg]
	return e.tag, e.val.Clone()
}

// TagWatermarks reports the replica's max installed tag per register — its
// watermark report for the health layer's lag computation. The health tag
// is a projection: unbounded tags report the timestamp sequence, bounded
// tags the label (both grow monotonically under the respective order).
// Never-written registers are omitted. limit > 0 keeps only the registers
// with the largest sequences, bounding report size on wide keyspaces.
func (r *Replica) TagWatermarks(limit int) health.ReplicaTags {
	type regTag struct {
		reg string
		tag health.Tag
	}
	r.mu.Lock()
	all := make([]regTag, 0, len(r.regs))
	for reg, e := range r.regs {
		if !e.tag.Valid {
			continue
		}
		ht := health.Tag{Seq: e.tag.TS.Seq, Writer: int64(e.tag.TS.Writer)}
		if e.tag.Window != 0 {
			ht = health.Tag{Seq: e.tag.Label, Writer: int64(e.tag.TS.Writer)}
		}
		all = append(all, regTag{reg: reg, tag: ht})
	}
	r.mu.Unlock()
	if limit > 0 && len(all) > limit {
		sort.Slice(all, func(i, j int) bool {
			if all[i].tag.Seq != all[j].tag.Seq {
				return all[i].tag.Seq > all[j].tag.Seq
			}
			return all[i].reg < all[j].reg
		})
		all = all[:limit]
	}
	out := health.ReplicaTags{Node: int64(r.id), Tags: make(map[string]health.Tag, len(all))}
	for _, rt := range all {
		out.Tags[rt.reg] = rt.tag
	}
	return out
}

// ReplicaMetrics is the replica-side counterpart of the client's
// MetricsSnapshot: the full server-side counter set, plus the store size.
// Every client phase lands here as exactly one query or update per
// contacted replica, so the two sides reconcile (see core_test.go).
type ReplicaMetrics struct {
	// Queries and Updates count handled requests by kind (Queries both
	// query kinds, value and tag-only); their sum is the number of protocol
	// requests this replica answered.
	Queries, Updates int64
	// Adoptions counts updates that replaced the stored pair ("applies");
	// StaleRejects counts updates whose tag was at or below the stored one
	// (write-back echoes, retransmissions, losing concurrent writers).
	// Adoptions + StaleRejects + OrderViolations == Updates.
	Adoptions, StaleRejects int64
	// OrderViolations counts updates whose tag could not be ordered against
	// the stored one (another label window, or bounded labels outside the
	// sound window), which the replica did not acknowledge; BadMsgs counts
	// undecodable payloads.
	OrderViolations, BadMsgs int64
	// Batches counts group commits; Updates/Batches is the mean writes per
	// commit. Fsyncs counts log flushes actually issued (persistent replicas
	// only) — under write load Fsyncs < Adoptions is the group-commit win,
	// i.e. fsyncs-per-acked-write below one.
	Batches, Fsyncs int64
	// Registers is the store size: how many named registers hold a pair.
	Registers int
}

// Merge returns the field-wise sum of two replicas' counters (a group's or
// a fleet's totals).
func (m ReplicaMetrics) Merge(o ReplicaMetrics) ReplicaMetrics {
	return ReplicaMetrics{
		Queries:         m.Queries + o.Queries,
		Updates:         m.Updates + o.Updates,
		Adoptions:       m.Adoptions + o.Adoptions,
		StaleRejects:    m.StaleRejects + o.StaleRejects,
		OrderViolations: m.OrderViolations + o.OrderViolations,
		BadMsgs:         m.BadMsgs + o.BadMsgs,
		Batches:         m.Batches + o.Batches,
		Fsyncs:          m.Fsyncs + o.Fsyncs,
		Registers:       m.Registers + o.Registers,
	}
}

// ReplicaMetrics returns a snapshot of the replica's counters and store
// size.
func (r *Replica) ReplicaMetrics() ReplicaMetrics {
	r.mu.Lock()
	registers := len(r.regs)
	persist := r.persist
	r.mu.Unlock()
	var fsyncs int64
	if persist != nil {
		fsyncs = persist.syncs.Load()
	}
	return ReplicaMetrics{
		Queries:         r.queries.Load(),
		Updates:         r.updates.Load(),
		Adoptions:       r.adoptions.Load(),
		StaleRejects:    r.staleRejects.Load(),
		OrderViolations: r.violations.Load(),
		BadMsgs:         r.badMsgs.Load(),
		Batches:         r.batches.Load(),
		Fsyncs:          fsyncs,
		Registers:       registers,
	}
}

// BatchSizes returns the distribution of writes per group commit. The
// histogram machinery is time-based, so sizes are recorded as if they were
// nanosecond durations: a bucket labelled "64ns" holds commits of ~64
// writes.
func (r *Replica) BatchSizes() obs.HistSnapshot {
	return r.batchSizes.Snapshot()
}
