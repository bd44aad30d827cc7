package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

// TestNodeMuxServesStatusAndPprof wires a single replica the way run()
// does and checks the whole HTTP surface: /status serves a well-formed
// health report with this replica's tag watermarks, /metrics carries the
// benchmark's series and the abd_health_* series with every family grouped,
// and the pprof index appears exactly when the flag is on.
func TestNodeMuxServesStatusAndPprof(t *testing.T) {
	ep, err := tcpnet.Listen(tcpnet.Config{ID: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	replica := core.NewReplica(0, ep)
	replica.Start()
	defer replica.Stop()

	// Install a few tags directly through the replica's own store by
	// driving a client at it, so /status has watermarks to report.
	cliEp, err := tcpnet.Listen(tcpnet.Config{ID: 9000, Peers: map[types.NodeID]string{0: ep.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.NewClient(9000, cliEp, []types.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := t.Context()
	for _, reg := range []string{"a", "b"} {
		if err := cli.Write(ctx, reg, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	nh := newNodeHealth(replica, ep, cli, cliEp)
	srv := httptest.NewServer(newNodeMux(nh, obs.NewCollector(0), true))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st health.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	resp.Body.Close()
	if st.Node != 0 {
		t.Fatalf("status node = %d, want 0", st.Node)
	}
	if st.Watermarks == nil || len(st.Watermarks.Tags) != 2 {
		t.Fatalf("watermarks = %+v, want tags for a and b", st.Watermarks)
	}
	for _, reg := range []string{"a", "b"} {
		if tag := st.Watermarks.Tags[reg]; tag.Seq < 1 {
			t.Fatalf("watermark for %s = %+v, want seq >= 1", reg, tag)
		}
	}
	if st.SLO == nil || st.SLO.Name == "" {
		t.Fatalf("slo block missing: %+v", st.SLO)
	}
	if st.HotKeyTotal < 2 {
		t.Fatalf("hot key total = %d, want >= 2", st.HotKeyTotal)
	}
	if st.Breakers == nil {
		t.Fatal("breakers block missing")
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		// Every series the repository benchmark reads (bench/layers.go),
		// whose own tests are outside `go test ./...`.
		"abd_replica_queries_total",
		"abd_replica_updates_total",
		"abd_replica_stale_rejects_total",
		"abd_replica_batches_total",
		"abd_replica_fsyncs_total",
		"abd_prof_alloc_objects_total",
		"abd_prof_gc_pause_p99_seconds",
		"abd_health_tracked_ops_total",
		"abd_health_watermark_seq",
		"abd_health_breakers_open",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("series %s missing from /metrics", series)
		}
	}

	// Text-format grouping: each family has one # TYPE line and every
	// sample sits under its own family's, so each family's samples are
	// contiguous — including the abd_transport_* families, written once per
	// endpoint.
	typed := map[string]bool{}
	family := ""
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(name, " ")
			if typed[family] {
				t.Errorf("family %s has a second # TYPE line", family)
			}
			typed[family] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if name != family && name != family+"_bucket" && name != family+"_sum" && name != family+"_count" {
			t.Errorf("sample %q outside its family's group (under %s)", line, family)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index returned %d with -pprof on", resp.StatusCode)
	}

	// Without the flag the pprof paths fall through to the obs mux's 404.
	plain := httptest.NewServer(newNodeMux(nh, obs.NewCollector(0), false))
	defer plain.Close()
	resp, err = plain.Client().Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("pprof index served without -pprof")
	}
}
