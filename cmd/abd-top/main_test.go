package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/health"
)

// statusServer serves a fixed health.Status the way abd-node's /status
// does, and returns the host:port abd-top's -nodes flag takes.
func statusServer(t *testing.T, st health.Status) string {
	t.Helper()
	mux := httptest.NewServer(health.Handler(func() health.Status { return st }))
	t.Cleanup(mux.Close)
	return strings.TrimPrefix(mux.URL, "http://")
}

// TestRunOnceRendersClusterView polls three synthetic nodes — two caught
// up, one straggling, plus one dead address — and checks the single-frame
// mode assembles the cross-replica picture no individual node has: the
// straggler flagged against the quorum-confirmed watermark, hot keys
// merged across sketches, per-node SLO state, the liar the nodes' probe
// clients named, and a nonzero node count in the header.
func TestRunOnceRendersClusterView(t *testing.T) {
	mk := func(node, seq int64) health.Status {
		return health.Status{
			Node:          node,
			UptimeSeconds: 12,
			HotKeys:       []health.HotKey{{Key: "x", Count: 50}, {Key: "y", Count: 5}},
			HotKeyTotal:   60,
			Watermarks:    &health.ReplicaTags{Node: node, Tags: map[string]health.Tag{"x": {Seq: seq}}},
			SLO: &health.SLOStatus{Name: "client-ops", Objective: 0.99,
				Windows: []health.WindowBurn{{WindowSeconds: 60, Burn: 0.5}}},
		}
	}
	fast0, fast1 := mk(0, 7), mk(1, 7)
	fast0.Byzantine = &health.ByzStatus{ToleratedFaults: 1, Suspects: map[int64]int64{4: 3}, Unconfirmed: 2}
	fast1.Byzantine = &health.ByzStatus{ToleratedFaults: 1, MaskRetries: 1}
	slow := mk(2, 2)
	slow.Byzantine = &health.ByzStatus{ToleratedFaults: 1, Suspects: map[int64]int64{4: 2}}
	slow.SLO.PageActive = true
	slow.Alerts = []health.Alert{{At: time.Unix(0, 0), SLO: "client-ops", Severity: health.SeverityPage, Burn: 11}}

	nodes := strings.Join([]string{
		statusServer(t, fast0),
		statusServer(t, fast1),
		statusServer(t, slow),
		"127.0.0.1:1", // nothing listens here: must render as DOWN, not abort
	}, ",")

	// -quorum 2 is the replica group's real majority (3 replicas); the
	// fourth polled address is a dead observer that must not shift it.
	var buf bytes.Buffer
	if code := run([]string{"-nodes", nodes, "-quorum", "2", "-once"}, &buf); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"3/4 nodes up",
		"quorum=2",
		"replica 2",
		"BEHIND on 1 regs, worst seq lag 5",
		"confirmed seq 7",
		"PAGE",
		"150 ops (>= 150)", // 3 sketches of x=50 merged
		"(180 tracked ops, merged over 3 nodes)",
		"DOWN",
		"alerts:",
		"byzantine validation (f=1, 3 nodes): LIARS NAMED: replica 4 (5 replies)",
		"unconfirmed rounds 2  mask retries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// -once must not emit terminal control sequences — it is the mode CI
	// pipes into assertions.
	if strings.Contains(out, "\x1b[") {
		t.Error("-once frame contains ANSI escapes")
	}
}

// TestRunOnceAllNodesDown: when nothing answers, the single frame renders
// every node DOWN and the exit code is nonzero so scripts notice.
func TestRunOnceAllNodesDown(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-nodes", "127.0.0.1:1", "-once"}, &buf); code == 0 {
		t.Fatalf("run succeeded with no reachable node:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "DOWN") {
		t.Errorf("frame does not mark the node DOWN:\n%s", buf.String())
	}
}

// TestRunRejectsEmptyNodes: -nodes is mandatory.
func TestRunRejectsEmptyNodes(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-once"}, &buf); code != 2 {
		t.Fatalf("run without -nodes exited %d, want 2", code)
	}
}
