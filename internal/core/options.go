package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/timestamp"
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithQuorum replaces the default majority system with any quorum system
// sized for the replica group. This is the published generalization of the
// paper's majorities. For multi-writer use, the system's write quorums must
// pairwise intersect (see quorum.VerifyWriteIntersection).
func WithQuorum(qs quorum.System) ClientOption {
	return func(c *Client) { c.qs = qs }
}

// WithSingleWriter declares that this client is the only writer of every
// register it writes. Writes then skip the query phase and use a local
// sequence counter — the paper's SWMR protocol, one round trip per write.
// Reads are unaffected. Violating the declaration (two single-writer
// clients writing the same register with the same node id, or mixing with
// multi-writer writers that observed nothing) forfeits atomicity.
func WithSingleWriter() ClientOption {
	return func(c *Client) { c.singleWriter = true }
}

// ReadMode decides how a Read turns its quorum round(s) into a result. The
// zero value, ReadAtomic, is the default.
type ReadMode int

const (
	// ReadAtomic completes a read in the one round already paid whenever the
	// repliers holding the newest pair (tag and value) contain a write
	// quorum, and writes back otherwise. Atomic for every quorum system;
	// DESIGN.md §10 has the invariant.
	ReadAtomic ReadMode = iota
	// ReadTwoPhase is the paper's read: every read of a written register
	// pays the write-back. Used by ablations and the message-complexity
	// experiments.
	ReadTwoPhase
	// ReadRegular never writes back. The result is a regular register, not
	// an atomic one: concurrent reads can observe a new value and then an
	// older one ("new/old inversion"). It exists so experiment T3 can
	// demonstrate why the paper's write-back is necessary, and as the ROWA
	// baseline's read. Never use it for real workloads.
	ReadRegular
)

// WithReadMode selects the read mode (default ReadAtomic).
func WithReadMode(m ReadMode) ClientOption {
	return func(c *Client) { c.readMode = m }
}

// Default bounds for the retransmission interval (WithRetransmit). The
// floor keeps a cold or fast client from spamming duplicates; the ceiling
// bounds how long a lost message can stall an operation once latencies have
// been inflated by faults.
const (
	DefaultRetransmitFloor   = 100 * time.Millisecond
	DefaultRetransmitCeiling = 2 * time.Second

	// adaptiveMinSamples is how many completed phases the latency
	// histogram needs before its p99 is trusted over the floor.
	adaptiveMinSamples = 8

	// adaptiveRefreshEvery is how many further completed phases may pass
	// before the adaptive interval is derived afresh.
	adaptiveRefreshEvery = 64
)

// WithRetransmit sets the phase retransmission policy: a phase rebroadcasts
// its request to the replicas that have not yet answered, every interval,
// until the quorum is assembled or the context expires. The paper's model
// assumes reliable channels; on lossy substrates (netsim with a drop
// probability, or TCP across connection resets and partitions)
// retransmission restores that abstraction. Every protocol message is
// idempotent — queries are read-only and updates are adopt-if-newer — so
// retransmission never affects safety, only liveness and message count.
//
// The interval for each phase is 3x the p99 of that phase kind's completed
// latencies — per client, per phase kind, from the always-on histograms —
// clamped to [floor, ceiling]. A fast network earns a short interval and
// quick loss recovery; a slow or congested one backs the interval off
// instead of amplifying the congestion. floor == ceiling (or a ceiling
// below the floor) gives a fixed interval of floor; floor <= 0 disables
// retransmission entirely, recovering the paper's pure reliable-channel
// model (ablations and message-count experiments); with nothing to widen a
// phase whose targets fail to answer, every phase then asks every replica,
// as the paper does. The default is
// [DefaultRetransmitFloor, DefaultRetransmitCeiling].
func WithRetransmit(floor, ceiling time.Duration) ClientOption {
	return func(c *Client) { c.rtFloor, c.rtCeil = floor, ceiling }
}

// WithByzantine makes Byzantine tolerance a first-class protocol mode:
// the client survives up to f replicas that lie — fabricating tags,
// serving stale state, equivocating per client, or staying silent — not
// just f that crash. It is the masking-quorum construction (Malkhi &
// Reiter): the client switches to quorum.NewMasking(n, f) sizes
// (overriding any WithQuorum), so read and write phases wait for enough
// acks that any two quorums intersect in >= 2f+1 replicas, and it adopts a
// (timestamp, value) pair only when >= f+1 replicas reported the identical
// pair — an echo f liars can never forge. The read's write-back then
// repairs honest laggards with the validated pair only (fabricated tags
// never propagate), so ReadRegular is rejected.
//
// Reads and multi-writer timestamp queries retry their phase until some
// pair has f+1 support (MetricsSnapshot.MaskRetries). In quiescent periods
// the latest write always does; under heavy write concurrency support can
// split across in-flight values — the construction is obstruction-free
// rather than wait-free, the standard trade-off for this extension.
//
// A pair newer than anything f+1-supported may be an honest in-flight
// write or a fabricated max-tag, and no number of re-queries tells them
// apart, so the query adopts the vouched pair in its one round and counts
// the other (MetricsSnapshot.ByzUnconfirmed). A replica is suspected only on
// evidence no honest replica can produce — a vouched tag with another
// value, or a tag older than one it reported to this client before
// (Client.Suspects, MetricsSnapshot.ByzSuspicions).
//
// Requires n >= 4f+1 replicas (quorum.Masking.Validate; n > 3f is the
// information-theoretic lower bound, but this one-round validation needs
// the stronger bound — see DESIGN.md). f = 0 is the plain crash-fault
// client unchanged: majority quorums, no validation, no cost.
func WithByzantine(f int) ClientOption {
	return func(c *Client) { c.f = f }
}

// WithTracer attaches a span tracer to the client. Every Read and Write
// emits an operation span, and every broadcast-and-collect phase emits a
// child span carrying the quorum-assembly detail (targets contacted,
// quorum size, first/last reply offsets, per-replica reply RTTs). The
// default is no tracer: spans cost nothing unless one is attached. Latency
// histograms (Latency) are always on regardless.
//
// Sinks in internal/obs: NewCollector in memory, NewJSONL for offline
// analysis, Multi to fan out. A nil t keeps tracing disabled.
func WithTracer(t obs.Tracer) ClientOption {
	return func(c *Client) { c.tracer = t }
}

// WithBoundedLabels switches the client to the bounded cyclic label mode
// with liveness window l >= 1 (NewClient rejects a smaller one), implying
// single-writer mode (the paper's bounded construction is for the SWMR
// register). Every tag the client issues carries l (Tag.Window), so
// replicas need no setting: they order tags of one window and refuse,
// unacknowledged, an update whose window differs from the stored tag's.
//
// The mode is sound under the bounded-staleness assumption discussed in
// DESIGN.md: no live label lags more than l issues behind the newest.
// Comparisons that fall outside the window are detected and surfaced as
// order violations rather than mis-ordered.
func WithBoundedLabels(l int64) ClientOption {
	return func(c *Client) {
		c.bounded, c.singleWriter, c.boundedDom = true, true, timestamp.Cyclic{L: l}
	}
}
