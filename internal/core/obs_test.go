package core

import (
	"context"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestLatencyHistogramsRecord: the always-on histograms must count exactly
// the completed operations and phases.
func TestLatencyHistogramsRecord(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 21, MinDelay: 100 * time.Microsecond, MaxDelay: 500 * time.Microsecond})
	// The counts below pin the paper's two-phase read; the one-round fast
	// path would legitimately skip the write-backs (fastpath_test.go covers
	// its accounting).
	cli := c.client(WithReadMode(ReadTwoPhase))
	ctx := shortCtx(t)

	const writes, reads = 4, 6
	for i := 0; i < writes; i++ {
		mustWrite(t, ctx, cli, "x", "v")
	}
	for i := 0; i < reads; i++ {
		_ = mustRead(t, ctx, cli, "x")
	}

	lat := cli.Latency()
	if lat.Read.Count != reads {
		t.Errorf("read histogram count = %d, want %d", lat.Read.Count, reads)
	}
	if lat.Write.Count != writes {
		t.Errorf("write histogram count = %d, want %d", lat.Write.Count, writes)
	}
	// Multi-writer: each write has a query phase; each read has one too.
	if lat.PhaseQuery.Count != writes+reads {
		t.Errorf("query phase count = %d, want %d", lat.PhaseQuery.Count, writes+reads)
	}
	// Each write has an update phase, each read a write-back.
	if lat.PhaseUpdate.Count != writes+reads {
		t.Errorf("update phase count = %d, want %d", lat.PhaseUpdate.Count, writes+reads)
	}
	// Two phases over a delayed network: an operation takes at least two
	// one-way minimum delays.
	if p0 := lat.Read.Quantile(0); p0 < 2*100*time.Microsecond {
		t.Errorf("fastest read %v is below two one-way min delays", p0)
	}
	// An operation cannot be faster than its slowest phase.
	if lat.Read.Quantile(0) < lat.PhaseQuery.Quantile(0) {
		t.Errorf("read min %v < query phase min %v", lat.Read.Quantile(0), lat.PhaseQuery.Quantile(0))
	}

	// Merge of two clients' snapshots accumulates both.
	cli2 := c.client()
	mustWrite(t, ctx, cli2, "y", "v")
	merged := lat.Merge(cli2.Latency())
	if merged.Write.Count != writes+1 {
		t.Errorf("merged write count = %d, want %d", merged.Write.Count, writes+1)
	}
}

// TestTracerSpans checks the span tree a traced read and write produce:
// operation root spans with phase children linked via Parent, phase spans
// carrying quorum detail and per-replica RTTs.
func TestTracerSpans(t *testing.T) {
	col := obs.NewCollector(0)
	c := newTestCluster(t, 3, netsim.Config{Seed: 22})
	// Two-phase read pinned: the span-tree shape below includes the
	// write-back the fast path would skip.
	cli := c.client(WithTracer(col), WithReadMode(ReadTwoPhase))
	ctx := shortCtx(t)

	mustWrite(t, ctx, cli, "x", "v")
	_ = mustRead(t, ctx, cli, "x")

	spans := col.Spans()
	// write = query + update + root; read = query + write-back + root.
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6: %+v", len(spans), spans)
	}

	roots := map[uint64]obs.Span{}
	var phases []obs.Span
	for _, s := range spans {
		switch s.Kind {
		case "read", "write":
			roots[s.ID] = s
		case "phase":
			phases = append(phases, s)
		default:
			t.Errorf("unexpected span kind %q", s.Kind)
		}
	}
	if len(roots) != 2 || len(phases) != 4 {
		t.Fatalf("got %d roots / %d phases, want 2 / 4", len(roots), len(phases))
	}
	wantPhases := map[string]int{"query": 2, "update": 1, "write-back": 1}
	gotPhases := map[string]int{}
	for _, p := range phases {
		gotPhases[p.Phase]++
		parent, ok := roots[p.Parent]
		if !ok {
			t.Errorf("phase %q has dangling parent %d", p.Phase, p.Parent)
			continue
		}
		if p.Reg != parent.Reg {
			t.Errorf("phase register %q != parent's %q", p.Reg, parent.Reg)
		}
		// A query asks one rotation of the target table (2 of 3); updates
		// and write-backs ask every replica.
		wantTargets := 3
		if p.Phase == "query" {
			wantTargets = cli.queryTargets[0].Count()
		}
		if p.Targets != wantTargets {
			t.Errorf("phase %q targets = %d, want %d", p.Phase, p.Targets, wantTargets)
		}
		if p.Quorum < 2 || p.Quorum > 3 {
			t.Errorf("phase %q quorum = %d, want majority of 3", p.Phase, p.Quorum)
		}
		if len(p.ReplicaRTT) != p.Quorum {
			t.Errorf("phase %q has %d RTTs for quorum %d", p.Phase, len(p.ReplicaRTT), p.Quorum)
		}
		if p.FirstReply <= 0 || p.LastReply < p.FirstReply || p.Dur < p.LastReply {
			t.Errorf("phase %q offsets inconsistent: first=%v last=%v dur=%v",
				p.Phase, p.FirstReply, p.LastReply, p.Dur)
		}
		if p.Err != "" {
			t.Errorf("phase %q unexpectedly failed: %s", p.Phase, p.Err)
		}
	}
	for name, want := range wantPhases {
		if gotPhases[name] != want {
			t.Errorf("phase %q emitted %d times, want %d (all: %v)", name, gotPhases[name], want, gotPhases)
		}
	}
}

// TestTracerSpansOnError: a phase that cannot assemble a quorum still emits
// its span, marked with the error, as does the operation root.
func TestTracerSpansOnError(t *testing.T) {
	col := obs.NewCollector(0)
	c := newTestCluster(t, 3, netsim.Config{Seed: 23})
	cli := c.client(WithTracer(col))

	// Majority down: no quorum can form.
	c.net.Crash(0)
	c.net.Crash(1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cli.Read(ctx, "x"); err == nil {
		t.Fatal("read with crashed majority should fail")
	}

	spans := col.Spans()
	if len(spans) != 2 { // failed query phase + failed read root
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	for _, s := range spans {
		if s.Err == "" {
			t.Errorf("span %q/%q should carry the error", s.Kind, s.Phase)
		}
	}
	// Only completed operations land in the histograms.
	if got := cli.Latency().Read.Count; got != 0 {
		t.Errorf("failed read recorded in histogram: count=%d", got)
	}
}

// sampleLine matches a Prometheus text-format sample line.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+(Inf)?$`)

// TestExposeIntegration runs a small netsim cluster, serves its metrics via
// obs.ExposeFull over real HTTP, and scrapes twice: every line must parse, and
// counters must be monotone across scrapes.
func TestExposeIntegration(t *testing.T) {
	const n = 3
	c := newTestCluster(t, n, netsim.Config{Seed: 31, MinDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond})
	cli := c.client()
	ctx := shortCtx(t)

	gather := func(w *obs.Writer) {
		cs := cli.Metrics()
		w.Counter("abd_client_reads_total", "completed reads", nil, cs.Reads)
		w.Counter("abd_client_writes_total", "completed writes", nil, cs.Writes)
		w.Counter("abd_client_phases_total", "broadcast-and-collect rounds", nil, cs.Phases)
		w.Counter("abd_client_msgs_sent_total", "request messages sent", nil, cs.MsgsSent)
		lat := cli.Latency()
		w.Histogram("abd_read_latency_seconds", "read latency", nil, lat.Read)
		w.Histogram("abd_write_latency_seconds", "write latency", nil, lat.Write)
		for _, r := range c.replicas {
			rm := r.ReplicaMetrics()
			labels := obs.Labels{"replica": strconv.FormatInt(int64(r.ID()), 10)}
			w.Counter("abd_replica_queries_total", "queries handled", labels, rm.Queries)
			w.Counter("abd_replica_updates_total", "updates handled", labels, rm.Updates)
			w.Counter("abd_replica_adoptions_total", "updates adopted", labels, rm.Adoptions)
			w.Gauge("abd_replica_registers", "registers stored", labels, float64(rm.Registers))
		}
		ns := c.net.Stats()
		w.Counter("abd_net_sent_total", "messages sent", nil, ns.Sent)
		w.Counter("abd_net_delivered_total", "messages delivered", nil, ns.Delivered)
		w.Histogram("abd_net_delivery_delay_seconds", "delivery delay", nil, ns.Delay)
	}
	srv := httptest.NewServer(obs.ExposeFull(gather, nil))
	defer srv.Close()

	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		out := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if !sampleLine.MatchString(line) {
				t.Fatalf("unparseable metric line: %q", line)
			}
			sp := strings.LastIndex(line, " ")
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			out[line[:sp]] = v
		}
		return out
	}

	mustWrite(t, ctx, cli, "x", "v0")
	first := scrape()
	if first["abd_client_writes_total"] != 1 {
		t.Errorf("first scrape writes = %v, want 1", first["abd_client_writes_total"])
	}

	for i := 0; i < 3; i++ {
		mustWrite(t, ctx, cli, "x", "v")
		_ = mustRead(t, ctx, cli, "x")
	}
	second := scrape()

	for series, v1 := range first {
		if strings.Contains(series, "_total") || strings.Contains(series, "_bucket") ||
			strings.HasSuffix(series, "_count") || strings.HasSuffix(series, "_sum") {
			if v2, ok := second[series]; !ok || v2 < v1 {
				t.Errorf("series %s not monotone across scrapes: %v -> %v", series, v1, v2)
			}
		}
	}
	if second["abd_client_reads_total"] != 3 || second["abd_client_writes_total"] != 4 {
		t.Errorf("second scrape ops: reads=%v writes=%v, want 3/4",
			second["abd_client_reads_total"], second["abd_client_writes_total"])
	}
	if second[`abd_read_latency_seconds_count`] != 3 {
		t.Errorf("read histogram count = %v, want 3", second["abd_read_latency_seconds_count"])
	}

	// /healthz answers while serving.
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("/healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}
