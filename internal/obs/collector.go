package obs

// Collector assembles spans from several processes into per-operation trace
// trees. It is both a Tracer (in-process spans Emit straight into it) and an
// ingestion point for spans that crossed a process boundary — JSONL files
// written by -trace-out flags, or a GET of the /spans endpoint abd-node
// mounts next to /metrics. The analysis half (AssembleTraces, Stitch) is
// pure and works on any []Span.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// defaultCollectorCap bounds an unconfigured Collector: at ~300 bytes per
// span this is on the order of 100 MB, far above any single analysis run
// but a hard stop against an unbounded leak in a long-lived node.
const defaultCollectorCap = 1 << 18

// Collector is a bounded concurrent span store. Spans past the capacity are
// counted in Dropped rather than silently lost, so trace loss is observable
// (the /healthz body reports both numbers).
type Collector struct {
	mu      sync.Mutex
	spans   []Span
	max     int
	dropped int64
}

// NewCollector creates a collector retaining at most max spans
// (max <= 0 selects the default capacity).
func NewCollector(max int) *Collector {
	if max <= 0 {
		max = defaultCollectorCap
	}
	return &Collector{max: max}
}

// Emit stores the span, or counts it as dropped when the collector is full.
func (c *Collector) Emit(s Span) {
	c.mu.Lock()
	if len(c.spans) < c.max {
		c.spans = append(c.spans, s)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// Spans returns a copy of the collected spans in arrival order.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// Len returns how many spans are currently retained.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Dropped returns how many spans were rejected because the collector was
// full.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// IngestJSONL reads one span per line (the JSONL tracer's format) until
// EOF, returning how many spans were added. A malformed line aborts with an
// error naming its line number; spans before it are kept.
func (c *Collector) IngestJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n, line := 0, 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return n, fmt.Errorf("obs: bad span on line %d: %w", line, err)
		}
		c.Emit(s)
		n++
	}
	return n, sc.Err()
}

// Handler returns the /spans endpoint: GET dumps every collected span as
// JSONL (the pull path for abd-cli trace against a live node); any other
// method is refused.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rw.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(rw)
		for _, s := range c.Spans() {
			if err := enc.Encode(s); err != nil {
				return
			}
		}
	})
}

// TraceNode is one span in an assembled trace tree, with its causal
// children ordered by start time.
type TraceNode struct {
	Span     Span
	Children []*TraceNode
}

// Trace is every span sharing one trace id, assembled into trees. Root is
// the operation span (kind "read" or "write") when one was collected;
// Orphans holds subtree roots whose parent span never arrived (lost to
// drops or an untraced process) — they share the trace id but cannot be
// attached under Root.
type Trace struct {
	ID      uint64
	Root    *TraceNode
	Orphans []*TraceNode
}

// Spans returns every span in the trace, preorder, Root's tree first.
func (t *Trace) Spans() []Span {
	var out []Span
	var walk func(*TraceNode)
	walk = func(n *TraceNode) {
		out = append(out, n.Span)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	for _, o := range t.Orphans {
		walk(o)
	}
	return out
}

// isOpKind reports whether a span is an operation root (a client read or
// write).
func isOpKind(kind string) bool { return kind == "read" || kind == "write" }

// AssembleTraces groups spans by trace id and builds parent/child trees.
// Spans without a trace id (emitted outside any propagated trace) are
// ignored. Traces are returned ordered by their earliest span start, and
// duplicate span ids (at-least-once ingestion) keep the first copy.
func AssembleTraces(spans []Span) []*Trace {
	byTrace := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Trace == 0 {
			continue
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	traces := make([]*Trace, 0, len(byTrace))
	for id, group := range byTrace {
		traces = append(traces, assembleOne(id, group))
	}
	sort.Slice(traces, func(i, j int) bool {
		return earliest(traces[i]).Before(earliest(traces[j]))
	})
	return traces
}

func earliest(t *Trace) time.Time {
	var min time.Time
	for _, s := range t.Spans() {
		if min.IsZero() || s.Start.Before(min) {
			min = s.Start
		}
	}
	return min
}

func assembleOne(id uint64, group []Span) *Trace {
	nodes := make(map[uint64]*TraceNode, len(group))
	for _, s := range group {
		if _, dup := nodes[s.ID]; dup {
			continue
		}
		nodes[s.ID] = &TraceNode{Span: s}
	}
	t := &Trace{ID: id}
	for _, n := range nodes {
		if parent, ok := nodes[n.Span.Parent]; ok && parent != n {
			parent.Children = append(parent.Children, n)
			continue
		}
		if isOpKind(n.Span.Kind) && t.Root == nil {
			t.Root = n
		} else {
			t.Orphans = append(t.Orphans, n)
		}
	}
	// An op root that arrived after another root-ish span was slotted:
	// prefer the op span, demote nothing (first op wins above). Order every
	// child list by start for stable rendering.
	var sortTree func(*TraceNode)
	sortTree = func(n *TraceNode) {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Span.Start.Before(n.Children[j].Span.Start)
		})
		for _, ch := range n.Children {
			sortTree(ch)
		}
	}
	if t.Root != nil {
		sortTree(t.Root)
	}
	for _, o := range t.Orphans {
		sortTree(o)
	}
	sort.Slice(t.Orphans, func(i, j int) bool {
		return t.Orphans[i].Span.Start.Before(t.Orphans[j].Span.Start)
	})
	return t
}

// StitchStats measures how much of the distributed picture made it back to
// the client operation that caused it: of the replica- and transport-side
// spans collected, how many sit on a parent chain that reaches an operation
// root span.
type StitchStats struct {
	// Total counts replica/transport spans ("handle", "wal-append",
	// "stale-reject", "net-send", "net-recv"); Stitched those whose parent
	// chain reaches a "read" or "write" span.
	Total    int
	Stitched int
	// Ops counts operation root spans seen; Traces distinct trace ids.
	Ops    int
	Traces int
}

// Ratio returns Stitched/Total, or 1 when there was nothing to stitch.
func (s StitchStats) Ratio() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(s.Stitched) / float64(s.Total)
}

// remoteKinds are the span kinds emitted away from the client operation —
// the ones whose attribution the wire-level trace context exists to enable.
var remoteKinds = map[string]bool{
	"handle": true, "wal-append": true, "stale-reject": true,
	"net-send": true, "net-recv": true,
}

// Stitch computes StitchStats over a span set.
func Stitch(spans []Span) StitchStats {
	byID := make(map[uint64]Span, len(spans))
	traces := make(map[uint64]bool)
	var st StitchStats
	for _, s := range spans {
		if _, dup := byID[s.ID]; !dup {
			byID[s.ID] = s
		}
		if s.Trace != 0 {
			traces[s.Trace] = true
		}
		if isOpKind(s.Kind) {
			st.Ops++
		}
	}
	st.Traces = len(traces)
	for _, s := range spans {
		if !remoteKinds[s.Kind] {
			continue
		}
		st.Total++
		cur, hops := s, 0
		for cur.Parent != 0 && hops < len(byID)+1 { // hop bound breaks id cycles
			next, ok := byID[cur.Parent]
			if !ok {
				break
			}
			if isOpKind(next.Kind) {
				st.Stitched++
				break
			}
			cur, hops = next, hops+1
		}
	}
	return st
}
