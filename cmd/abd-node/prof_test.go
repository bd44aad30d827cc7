package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/tcpnet"
)

// TestNodeMetricsCarryProfSeries checks the performance-observability
// surface of /metrics: the runtime sampler's abd_prof_* series are always
// exported, and the flight-recorder ring counters appear when a recorder is
// armed. A triggered capture must then show in abd_prof_captures_total.
func TestNodeMetricsCarryProfSeries(t *testing.T) {
	ep, err := tcpnet.Listen(tcpnet.Config{ID: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	replica := core.NewReplica(0, ep)
	replica.Start()
	defer replica.Stop()

	nh := newNodeHealth(replica, ep, nil, nil)
	rec, err := prof.NewRecorder(prof.RecorderConfig{
		Dir: t.TempDir(), MaxCaptures: 2, CPUSeconds: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	nh.recorder = rec

	// Pull the trigger the watchdog pulls on a page alert.
	if !rec.Trigger("slo-page") {
		t.Fatal("first trigger rejected")
	}
	rec.Wait()

	srv := httptest.NewServer(newNodeMux(nh, obs.NewCollector(0), false))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"abd_prof_alloc_bytes_total",
		"abd_prof_alloc_objects_total",
		"abd_prof_gc_cycles_total",
		"abd_prof_goroutines",
		"abd_prof_gc_pause_p99_seconds",
		"abd_prof_captures_total",
		"abd_prof_capture_skips_total",
		"abd_prof_capture_evictions_total",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("series %s missing from /metrics", series)
		}
	}
	if !strings.Contains(string(body), `abd_prof_captures_total{node="0"} 1`) {
		t.Error("completed capture not counted in abd_prof_captures_total")
	}
}

// TestNodeWatchReportsAnomalies checks the watchdog's poll contract on a
// quiet node: no alerts, repeated calls stay silent, and fresh alerts
// drain exactly once.
func TestNodeWatchReportsAnomalies(t *testing.T) {
	ep, err := tcpnet.Listen(tcpnet.Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	replica := core.NewReplica(1, ep)
	replica.Start()
	defer replica.Stop()

	nh := newNodeHealth(replica, ep, nil, nil)
	for i := 0; i < 3; i++ {
		if fresh := nh.watch(); len(fresh) != 0 {
			t.Fatalf("quiet node reported %d alerts", len(fresh))
		}
	}

	// A manufactured pending alert drains exactly once.
	nh.mu.Lock()
	nh.pending = append(nh.pending, health.Alert{Severity: health.SeverityPage, At: time.Now()})
	nh.mu.Unlock()
	if fresh := nh.watch(); len(fresh) != 1 {
		t.Fatalf("pending alert not drained: got %d", len(fresh))
	}
	if fresh := nh.watch(); len(fresh) != 0 {
		t.Fatalf("alert drained twice: got %d", len(fresh))
	}
}
