package core

import (
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
)

// Metrics holds a client's operation counters. All fields are updated
// atomically; read them through snapshot.
type Metrics struct {
	reads             atomic.Int64
	writes            atomic.Int64
	phases            atomic.Int64
	msgsSent          atomic.Int64
	writeBacks        atomic.Int64
	writeBacksSkipped atomic.Int64
	orderViolations   atomic.Int64
	stragglers        atomic.Int64
	badMsgs           atomic.Int64
	retransmits       atomic.Int64
	maskRetries       atomic.Int64
	byzUnconfirmed    atomic.Int64
	byzSuspicions     atomic.Int64
	fastPathReads     atomic.Int64
	readRounds        atomic.Int64
	readFails         atomic.Int64
	writeFails        atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of a client's counters.
type MetricsSnapshot struct {
	// Reads and Writes count completed operations.
	Reads, Writes int64
	// Phases counts send-and-collect rounds; the paper's round
	// complexity claims (T2) are checked against Phases/ops ratios.
	Phases int64
	// MsgsSent counts request messages sent by this client (T1 counts
	// replies too, via the network's stats).
	MsgsSent int64
	// WriteBacks and WriteBacksSkipped split reads of a written register by
	// whether the second phase ran (skipped = fast-path hits, plus every
	// read under ReadRegular).
	WriteBacks, WriteBacksSkipped int64
	// OrderViolations counts replica tags the client could not order: of
	// another label window, or bounded labels outside the sound window (T4).
	OrderViolations int64
	// Stragglers counts replies that arrived after their operation
	// finished — the protocol's designed-for case, not an error.
	Stragglers int64
	// BadMsgs counts undecodable or unexpected payloads.
	BadMsgs int64
	// Retransmits counts re-sent requests (WithRetransmit on a lossy
	// substrate).
	Retransmits int64
	// MaskRetries counts masking-mode query phases repeated because no
	// pair had f+1 support (T6).
	MaskRetries int64
	// ByzUnconfirmed counts WithByzantine query rounds that saw a pair
	// ahead of everything f+1-vouched without that support: an honest
	// in-flight write or a fabrication, which one round cannot tell apart.
	// It is a rate, not an accusation. ByzSuspicions counts replies that
	// were evidence of lying no honest replica can produce (Client.Suspects
	// names their senders): zero in every honest run.
	ByzUnconfirmed, ByzSuspicions int64
	// CoalescedReads and AbsorbedWrites are always zero: every read and
	// write runs its own quorum rounds (DESIGN.md §6). They go together
	// with the two bench per-layer metrics that still read them.
	CoalescedReads, AbsorbedWrites int64
	// FastPathReads counts reads completed in one round because the query
	// replies proved the newest pair already at a write quorum: the
	// repliers holding it contain one (the ReadAtomic path; DESIGN.md §10).
	// ReadRounds sums the quorum rounds every completed read paid (query,
	// masking retries, write-back) — ReadRounds/Reads is the mean round
	// trips per read, the number the fast path exists to push toward 1.
	FastPathReads, ReadRounds int64
	// ReadFails and WriteFails count operations that returned an error (no
	// quorum, timeout, closed client). Together with Reads/Writes they give
	// the SLO layer its total and errored op counts.
	ReadFails, WriteFails int64
}

// Merge returns the field-wise sum of two snapshots, for aggregating
// counters across clients — the shard store's per-group clients, a
// cluster's client fleet, or the nemesis harness's workload clients.
func (s MetricsSnapshot) Merge(o MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		Reads:             s.Reads + o.Reads,
		Writes:            s.Writes + o.Writes,
		Phases:            s.Phases + o.Phases,
		MsgsSent:          s.MsgsSent + o.MsgsSent,
		WriteBacks:        s.WriteBacks + o.WriteBacks,
		WriteBacksSkipped: s.WriteBacksSkipped + o.WriteBacksSkipped,
		OrderViolations:   s.OrderViolations + o.OrderViolations,
		Stragglers:        s.Stragglers + o.Stragglers,
		BadMsgs:           s.BadMsgs + o.BadMsgs,
		Retransmits:       s.Retransmits + o.Retransmits,
		MaskRetries:       s.MaskRetries + o.MaskRetries,
		ByzUnconfirmed:    s.ByzUnconfirmed + o.ByzUnconfirmed,
		ByzSuspicions:     s.ByzSuspicions + o.ByzSuspicions,
		CoalescedReads:    s.CoalescedReads + o.CoalescedReads,
		AbsorbedWrites:    s.AbsorbedWrites + o.AbsorbedWrites,
		FastPathReads:     s.FastPathReads + o.FastPathReads,
		ReadRounds:        s.ReadRounds + o.ReadRounds,
		ReadFails:         s.ReadFails + o.ReadFails,
		WriteFails:        s.WriteFails + o.WriteFails,
	}
}

func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Reads:             m.reads.Load(),
		Writes:            m.writes.Load(),
		Phases:            m.phases.Load(),
		MsgsSent:          m.msgsSent.Load(),
		WriteBacks:        m.writeBacks.Load(),
		WriteBacksSkipped: m.writeBacksSkipped.Load(),
		OrderViolations:   m.orderViolations.Load(),
		Stragglers:        m.stragglers.Load(),
		BadMsgs:           m.badMsgs.Load(),
		Retransmits:       m.retransmits.Load(),
		MaskRetries:       m.maskRetries.Load(),
		ByzUnconfirmed:    m.byzUnconfirmed.Load(),
		ByzSuspicions:     m.byzSuspicions.Load(),
		FastPathReads:     m.fastPathReads.Load(),
		ReadRounds:        m.readRounds.Load(),
		ReadFails:         m.readFails.Load(),
		WriteFails:        m.writeFails.Load(),
	}
}

// latencySet holds a client's always-on latency histograms. Recording is
// a few atomic adds per operation, cheap enough to never gate behind an
// option; spans (WithTracer) carry the expensive per-phase detail instead.
type latencySet struct {
	read        obs.Histogram // whole Read operations (both phases)
	write       obs.Histogram // whole Write operations (incl. query phase)
	phaseQuery  obs.Histogram // individual query phases
	phaseUpdate obs.Histogram // individual update / write-back phases
	readRounds  obs.Histogram // quorum rounds per read (a count, not ns)
}

// LatencySnapshot is a point-in-time copy of a client's latency
// histograms. Only completed (error-free) operations and phases are
// recorded; failures are visible in the counters instead.
type LatencySnapshot struct {
	Read        obs.HistSnapshot
	Write       obs.HistSnapshot
	PhaseQuery  obs.HistSnapshot
	PhaseUpdate obs.HistSnapshot
	// ReadRounds is the distribution of quorum round trips per completed
	// read. The histogram machinery is time-based, so counts are recorded
	// as if they were nanosecond durations (like Replica.BatchSizes): a
	// bucket labelled "1ns" holds the fast-path one-round reads.
	ReadRounds obs.HistSnapshot
}

// Merge folds another client's snapshot into this one, histogram by
// histogram, for fleet-wide quantiles.
func (s LatencySnapshot) Merge(o LatencySnapshot) LatencySnapshot {
	return LatencySnapshot{
		Read:        s.Read.Merge(o.Read),
		Write:       s.Write.Merge(o.Write),
		PhaseQuery:  s.PhaseQuery.Merge(o.PhaseQuery),
		PhaseUpdate: s.PhaseUpdate.Merge(o.PhaseUpdate),
		ReadRounds:  s.ReadRounds.Merge(o.ReadRounds),
	}
}

// Fleet is a set of clients read as one: a Cluster's clients and stores, a
// Store's group clients, the nemesis workload, a node's prober. Every
// fleet-wide health number is computed here, so each host adds only what it
// alone can see (node id, uptime, replica watermarks, lag).
type Fleet []*Client

// Metrics sums the clients' operation counters.
func (f Fleet) Metrics() (out MetricsSnapshot) {
	for _, c := range f {
		out = out.Merge(c.Metrics())
	}
	return out
}

// Latency merges the clients' latency histograms, exactly up to the
// histograms' bucket resolution.
func (f Fleet) Latency() (out LatencySnapshot) {
	for _, c := range f {
		out = out.Merge(c.Latency())
	}
	return out
}

// HotKeys merges the clients' hot-key sketches — always on, counting every
// attempted read and write — into one top-k list (k <= 0 keeps all).
func (f Fleet) HotKeys(k int) []health.HotKey {
	lists := make([][]health.HotKey, len(f))
	for i, c := range f {
		lists[i] = c.hot.Top(0)
	}
	return health.MergeHotKeys(k, lists...)
}

// Byzantine is the fleet's read-validation verdict: the largest tolerated
// f, every client's Suspects summed per replica, and the summed unconfirmed
// rounds and mask retries. It is nil when no client validates reads.
func (f Fleet) Byzantine() *health.ByzStatus {
	b := &health.ByzStatus{Suspects: make(map[int64]int64)}
	for _, c := range f {
		m := c.Metrics()
		b.ToleratedFaults = max(b.ToleratedFaults, int64(c.f))
		b.Unconfirmed += m.ByzUnconfirmed
		b.MaskRetries += m.MaskRetries
		for id, n := range c.Suspects() {
			b.Suspects[int64(id)] += n
		}
	}
	if b.ToleratedFaults == 0 {
		return nil
	}
	return b
}

// Health takes one SLO sample of the fleet — its cumulative latency and
// failure counters go into tr, whose burn windows are evaluated as of now
// — and returns it with the top-10 hot keys and the Byzantine verdict,
// plus the alerts this evaluation raised (rising edges only). Poll it
// periodically; the first call only seeds the baseline.
func (f Fleet) Health(tr *health.Tracker, now time.Time) (health.Status, []health.Alert) {
	m, lat := f.Metrics(), f.Latency()
	total, bad := tr.SLO().Cut(lat.Read.Merge(lat.Write), m.ReadFails+m.WriteFails)
	tr.Ingest(now, total, bad)
	slo, fresh := tr.Evaluate(now)
	st := health.Status{HotKeys: f.HotKeys(10), SLO: &slo, Alerts: tr.Raised(), Byzantine: f.Byzantine()}
	for _, c := range f {
		st.HotKeyTotal += c.hot.Total()
	}
	return st, fresh
}

func (l *latencySet) snapshot() LatencySnapshot {
	return LatencySnapshot{
		Read:        l.read.Snapshot(),
		Write:       l.write.Snapshot(),
		PhaseQuery:  l.phaseQuery.Snapshot(),
		PhaseUpdate: l.phaseUpdate.Snapshot(),
		ReadRounds:  l.readRounds.Snapshot(),
	}
}
