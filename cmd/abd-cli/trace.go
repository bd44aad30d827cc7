// The trace verb analyzes span dumps produced by traced ABD processes (the
// -trace-out JSONL files of abd-node and abd-sim, or a GET of a live node's
// /spans endpoint). It stitches spans from every process into per-operation
// trace trees and answers the two questions raw latency histograms cannot:
// where inside the slowest operations the time went (client queueing,
// network, replica handler, fsync), and which replica kept closing — or
// missing — the quorum.
//
//	abd-cli trace [-top N] [-min-stitch F] spans.jsonl [more.jsonl ...]
//
// Reads stdin when no files are given (or a file is "-"). With -min-stitch,
// exits nonzero when fewer than that fraction of replica/transport spans
// trace back to a client operation — the CI smoke test's assertion that
// wire-level propagation survived a nemesis run.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func runTrace(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("abd-cli trace", flag.ContinueOnError)
	var (
		top       = fs.Int("top", 3, "render the N slowest operations as flame trees")
		minStitch = fs.Float64("min-stitch", 0, "exit nonzero when the stitch ratio is below this fraction")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := traceReport(fs.Args(), *top, *minStitch, w); err != nil {
		fmt.Fprintln(os.Stderr, "abd-cli trace:", err)
		return 1
	}
	return 0
}

func traceReport(files []string, top int, minStitch float64, w io.Writer) error {
	col := obs.NewCollector(0)
	if len(files) == 0 {
		files = []string{"-"}
	}
	for _, f := range files {
		if err := ingest(col, f); err != nil {
			return err
		}
	}
	spans := col.Spans()
	if len(spans) == 0 {
		src := strings.Join(files, ", ")
		if src == "-" {
			src = "stdin"
		}
		return fmt.Errorf("no spans in %s — the input parsed cleanly but held zero span records; "+
			"was the producing process started with -trace-out (or, for a live node, "+
			"-metrics-addr so /spans collects)?", src)
	}

	st := obs.Stitch(spans)
	report(w, spans, st, top)

	if st.Ratio() < minStitch {
		return fmt.Errorf("stitch ratio %.3f below required %.3f (%d/%d remote spans reached an operation)",
			st.Ratio(), minStitch, st.Stitched, st.Total)
	}
	return nil
}

func ingest(col *obs.Collector, path string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if _, err := col.IngestJSONL(r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// breakdown is one operation's critical path split into where the time went.
// The decomposition works per phase off the quorum-closing reply: the closer
// is the counted replica with the largest reply offset; its handler interval
// splits into fsync (wal-append children) and pure handler time; whatever of
// the closing reply's round trip the handler does not account for is
// network (request + reply legs plus transport queueing). Client is the
// remainder of the operation — local queueing, retransmit scheduling, and
// inter-phase turnaround — so the components sum to the operation's
// duration (clamped at zero when cross-process interval skew over-accounts).
type breakdown struct {
	Client, Network, Handler, Fsync time.Duration
}

func (b breakdown) sum() time.Duration { return b.Client + b.Network + b.Handler + b.Fsync }

// opStat is one analyzed operation: its root span, per-component breakdown,
// and the assembled tree for rendering.
type opStat struct {
	span obs.Span
	bd   breakdown
	node *obs.TraceNode
	// slowPhase is the phase with the largest quorum-closing reply offset;
	// closer its closing replica (-1 when the phase carried no RTT detail).
	slowPhase obs.Span
	closer    int64
}

// replicaStat tallies quorum participation for one replica across every
// phase that recorded per-replica RTTs.
type replicaStat struct {
	answered int // counted toward a quorum
	closer   int // was the quorum-completing reply
	missed   int // phase closed without it
	rttSum   time.Duration
}

// decompose analyzes one assembled operation tree.
func decompose(root *obs.TraceNode) opStat {
	op := opStat{span: root.Span, node: root, closer: -1}
	for _, ch := range root.Children {
		if ch.Span.Kind != "phase" {
			continue
		}
		p := ch.Span
		closer := closerOf(p)
		if p.LastReply > op.slowPhase.LastReply {
			op.slowPhase, op.closer = p, closer
		}
		// The closer's handle span, when the replica was traced.
		var handle *obs.TraceNode
		for _, h := range ch.Children {
			if h.Span.Kind == "handle" && (closer < 0 || h.Span.Node == closer) {
				handle = h
				break
			}
		}
		if handle == nil {
			op.bd.Network += p.LastReply
			continue
		}
		var wal time.Duration
		for _, g := range handle.Children {
			if g.Span.Kind == "wal-append" {
				wal += g.Span.Dur
			}
		}
		op.bd.Fsync += wal
		op.bd.Handler += maxDur(0, handle.Span.Dur-wal)
		op.bd.Network += maxDur(0, p.LastReply-handle.Span.Dur)
	}
	op.bd.Client = maxDur(0, op.span.Dur-op.bd.Network-op.bd.Handler-op.bd.Fsync)
	return op
}

// closerOf returns the replica whose reply completed the phase's quorum: the
// counted reply with the largest offset. -1 when the phase has no RTT map.
func closerOf(p obs.Span) int64 {
	closer, best := int64(-1), time.Duration(-1)
	for id, rtt := range p.ReplicaRTT {
		if rtt > best {
			closer, best = id, rtt
		}
	}
	return closer
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func report(w io.Writer, spans []obs.Span, st obs.StitchStats, top int) {
	kinds := make(map[string]int)
	for _, s := range spans {
		kinds[s.Kind]++
	}
	fmt.Fprintf(w, "spans: %d   traces: %d   ops: %d\n", len(spans), st.Traces, st.Ops)
	fmt.Fprintf(w, "stitch: %d/%d remote spans reach an operation (%.1f%%)\n",
		st.Stitched, st.Total, 100*st.Ratio())
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-12s %d\n", k, kinds[k])
	}

	traces := obs.AssembleTraces(spans)
	var ops []opStat
	replicas := make(map[int64]*replicaStat)
	phases := 0
	for _, tr := range traces {
		if tr.Root == nil {
			continue
		}
		ops = append(ops, decompose(tr.Root))
		for _, ch := range tr.Root.Children {
			p := ch.Span
			if p.Kind != "phase" || len(p.ReplicaRTT) == 0 {
				continue
			}
			phases++
			closer := closerOf(p)
			for id, rtt := range p.ReplicaRTT {
				rs := replicas[id]
				if rs == nil {
					rs = &replicaStat{}
					replicas[id] = rs
				}
				rs.answered++
				rs.rttSum += rtt
				if id == closer {
					rs.closer++
				}
			}
			// A replica can handle every request yet never make a quorum
			// (its replies always arrive after the closer's). Its handle
			// spans are the only evidence — make sure it gets a table row.
			for _, h := range ch.Children {
				if h.Span.Kind == "handle" && replicas[h.Span.Node] == nil {
					replicas[h.Span.Node] = &replicaStat{}
				}
			}
		}
	}
	if len(ops) == 0 {
		fmt.Fprintln(w, "\nno operation spans — nothing to decompose")
		return
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].span.Dur > ops[j].span.Dur })

	// Aggregate critical path over every operation.
	var agg breakdown
	for _, op := range ops {
		agg.Client += op.bd.Client
		agg.Network += op.bd.Network
		agg.Handler += op.bd.Handler
		agg.Fsync += op.bd.Fsync
	}
	durs := make([]time.Duration, len(ops))
	for i, op := range ops {
		durs[i] = op.span.Dur
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	fmt.Fprintf(w, "\ncritical path across %d ops (p50 %s, p99 %s, max %s):\n",
		len(ops), fmtDur(pct(durs, 0.50)), fmtDur(pct(durs, 0.99)), fmtDur(durs[len(durs)-1]))
	printBreakdown(w, agg)

	p99 := ops[(len(ops)-1)*1/100] // ops sorted descending: index ~ worst 1%
	fmt.Fprintf(w, "\np99 operation: %s %s\n", opLabel(p99.span), fmtDur(p99.span.Dur))
	printBreakdown(w, p99.bd)
	if p99.slowPhase.Kind != "" {
		fmt.Fprintf(w, "  slowest phase: %s (quorum %d/%d closed at %s)\n",
			p99.slowPhase.Phase, p99.slowPhase.Quorum, p99.slowPhase.Targets, fmtDur(p99.slowPhase.LastReply))
		if p99.closer >= 0 {
			rs := replicas[p99.closer]
			total := rs.closer
			fmt.Fprintf(w, "  straggler: replica %d closed this quorum; it was the closer in %d/%d phases overall\n",
				p99.closer, total, phases)
		}
	}

	// Per-shard split, when the spans came from a sharded store (tagged by
	// shard.Tag; Span.Shard is group+1, 0 means untagged). Shows whether the
	// router spread operations — and their critical-path shape — evenly.
	shardOps := make(map[int][]opStat)
	for _, op := range ops {
		if op.span.Shard > 0 {
			shardOps[op.span.Shard-1] = append(shardOps[op.span.Shard-1], op)
		}
	}
	if len(shardOps) > 0 {
		groups := make([]int, 0, len(shardOps))
		for g := range shardOps {
			groups = append(groups, g)
		}
		sort.Ints(groups)
		untagged := len(ops)
		fmt.Fprintf(w, "\nper-shard operations (%d replica groups):\n", len(groups))
		fmt.Fprintf(w, "  %-6s %5s %10s %10s %10s %10s\n", "group", "ops", "p50", "p99", "network", "fsync")
		for _, g := range groups {
			gops := shardOps[g]
			untagged -= len(gops)
			gd := make([]time.Duration, len(gops))
			var gb breakdown
			for i, op := range gops {
				gd[i] = op.span.Dur
				gb.Client += op.bd.Client
				gb.Network += op.bd.Network
				gb.Handler += op.bd.Handler
				gb.Fsync += op.bd.Fsync
			}
			sort.Slice(gd, func(i, j int) bool { return gd[i] < gd[j] })
			fmt.Fprintf(w, "  %-6d %5d %10s %10s %10s %10s\n",
				g, len(gops), fmtDur(pct(gd, 0.50)), fmtDur(pct(gd, 0.99)), fmtDur(gb.Network), fmtDur(gb.Fsync))
		}
		if untagged > 0 {
			fmt.Fprintf(w, "  (%d operations carried no shard tag)\n", untagged)
		}
	}

	if len(replicas) > 0 {
		ids := make([]int64, 0, len(replicas))
		for id := range replicas {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(w, "\nreplica quorum participation (%d phases):\n", phases)
		fmt.Fprintf(w, "  %-8s %9s %7s %7s %10s\n", "replica", "answered", "closer", "missed", "mean rtt")
		for _, id := range ids {
			rs := replicas[id]
			rs.missed = phases - rs.answered
			mean := time.Duration(0)
			if rs.answered > 0 {
				mean = rs.rttSum / time.Duration(rs.answered)
			}
			fmt.Fprintf(w, "  %-8d %9d %7d %7d %10s\n", id, rs.answered, rs.closer, rs.missed, fmtDur(mean))
		}
	}

	if top > len(ops) {
		top = len(ops)
	}
	for i := 0; i < top; i++ {
		fmt.Fprintf(w, "\n#%d slowest operation:\n", i+1)
		renderFlame(w, ops[i].node)
	}
}

func printBreakdown(w io.Writer, b breakdown) {
	total := b.sum()
	row := func(name string, d time.Duration) {
		pctOf := 0.0
		if total > 0 {
			pctOf = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(w, "  %-18s %10s  %5.1f%%  %s\n", name, fmtDur(d), pctOf, bar(pctOf/100, 30))
	}
	row("client/queueing", b.Client)
	row("network", b.Network)
	row("replica handler", b.Handler)
	row("wal fsync", b.Fsync)
}

// pct returns the q-th percentile of sorted durations.
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// renderFlame prints an operation's tree with each span's bar positioned and
// scaled against the operation interval — a text flamegraph.
func renderFlame(w io.Writer, root *obs.TraceNode) {
	const width = 32
	opStart, opDur := root.Span.Start, root.Span.Dur
	if opDur <= 0 {
		opDur = 1
	}
	var walk func(n *obs.TraceNode, depth int)
	walk = func(n *obs.TraceNode, depth int) {
		s := n.Span
		off := s.Start.Sub(opStart)
		lo := clamp(int(float64(off)/float64(opDur)*width), 0, width)
		hi := clamp(int(float64(off+s.Dur)/float64(opDur)*width), lo, width)
		if hi == lo && s.Dur > 0 {
			hi++ // every real interval shows at least one cell
			if hi > width {
				lo, hi = width-1, width
			}
		}
		lane := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) + strings.Repeat(" ", width-hi)
		label := strings.Repeat("  ", depth) + spanLabel(s)
		fmt.Fprintf(w, "  %-46s %10s |%s|\n", trunc(label, 46), fmtDur(s.Dur), lane)
		const maxChildren = 16
		for i, ch := range n.Children {
			if i == maxChildren {
				fmt.Fprintf(w, "  %s… (+%d more)\n", strings.Repeat("  ", depth+1), len(n.Children)-maxChildren)
				break
			}
			walk(ch, depth+1)
		}
	}
	walk(root, 0)
}

func opLabel(s obs.Span) string {
	return fmt.Sprintf("%s(%s) client=%d", s.Kind, s.Reg, s.Node)
}

func spanLabel(s obs.Span) string {
	var l string
	switch s.Kind {
	case "read", "write":
		l = opLabel(s)
	case "phase":
		l = fmt.Sprintf("phase %s [q=%d/%d]", s.Phase, s.Quorum, s.Targets)
	case "net-send":
		l = fmt.Sprintf("net-send %d→%d", s.Node, s.Peer)
	case "net-recv":
		l = fmt.Sprintf("net-recv %d←%d", s.Node, s.Peer)
	default: // handle, wal-append, stale-reject
		l = fmt.Sprintf("%s @%d", s.Kind, s.Node)
	}
	if s.Err != "" {
		l += " ERR(" + s.Err + ")"
	}
	return l
}

func bar(frac float64, width int) string {
	n := clamp(int(frac*float64(width)+0.5), 0, width)
	return strings.Repeat("#", n)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(d)/float64(time.Second))
	}
}
