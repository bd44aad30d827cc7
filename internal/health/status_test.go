package health

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func sampleStatus() Status {
	return Status{
		Node:          7,
		UptimeSeconds: 12.5,
		HotKeys:       []HotKey{{Key: "hot", Count: 100}, {Key: "warm", Count: 10, Err: 2}},
		HotKeyTotal:   150,
		Watermarks: &ReplicaTags{Node: 7, Tags: map[string]Tag{
			"hot": {Seq: 42, Writer: 1},
		}},
		Lag: &LagReport{
			Quorum: 2,
			Replicas: []ReplicaLag{
				{Node: 1, Sampled: 3},
				{Node: 2, Sampled: 3, Behind: 1, MaxSeqLag: 4},
			},
		},
		SLO: &SLOStatus{
			Name:      "client-ops",
			Objective: 0.99,
			LatencyMS: 250,
			Windows: []WindowBurn{
				{WindowSeconds: 60, Total: 100, Bad: 2, BadFraction: 0.02, Burn: 2},
			},
			TicketActive: true,
		},
		Alerts: []Alert{
			{At: time.Unix(1, 0), SLO: "client-ops", Severity: SeverityTicket, Burn: 2},
		},
		Byzantine: &ByzStatus{ToleratedFaults: 1, Suspects: map[int64]int64{4: 3}, Unconfirmed: 5, MaskRetries: 2},
	}
}

func TestHandlerServesStatusJSON(t *testing.T) {
	h := Handler(sampleStatus)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var got Status
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if got.Node != 7 || got.HotKeyTotal != 150 || len(got.HotKeys) != 2 {
		t.Fatalf("round-trip lost data: %+v", got)
	}
	if got.SLO == nil || !got.SLO.TicketActive || got.Lag == nil || got.Watermarks == nil {
		t.Fatalf("nested blocks lost: %+v", got)
	}
	if len(got.Alerts) != 1 || got.Alerts[0].Severity != SeverityTicket {
		t.Fatalf("alerts lost: %+v", got.Alerts)
	}
	if got.Byzantine == nil || got.Byzantine.Suspects[4] != 3 {
		t.Fatalf("named liar lost: %+v", got.Byzantine)
	}
}

func TestHandlerNeverNullsRequiredArrays(t *testing.T) {
	h := Handler(func() Status { return Status{} })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	body := rec.Body.String()
	// jq consumers index these unconditionally; they must be [] not null.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"hot_keys", "alerts"} {
		if string(raw[field]) == "null" {
			t.Fatalf("%s serialized as null:\n%s", field, body)
		}
	}
}

func TestWriteMetricsSeries(t *testing.T) {
	w := obs.NewWriter()
	WriteMetrics(w, obs.Labels{"node": "7"}, sampleStatus())
	out := w.String()
	for _, want := range []string{
		`abd_health_hot_key_ops_total{node="7",reg="hot"} 100`,
		`abd_health_tracked_ops_total{node="7"} 150`,
		`abd_health_slo_burn{node="7",window_seconds="60"} 2`,
		`abd_health_slo_page_active{node="7"} 0`,
		`abd_health_slo_ticket_active{node="7"} 1`,
		`abd_health_alerts_total{node="7",severity="page"} 0`,
		`abd_health_alerts_total{node="7",severity="ticket"} 1`,
		`abd_health_watermark_seq{node="7",reg="hot"} 42`,
		`abd_health_replica_behind_registers{node="7",replica="2"} 1`,
		`abd_health_replica_max_seq_lag{node="7",replica="2"} 4`,
		`abd_health_byz_tolerated_faults{node="7"} 1`,
		`abd_health_byz_suspicions_total{node="7",replica="4"} 3`,
		`abd_health_byz_unconfirmed_total{node="7"} 5`,
		`abd_health_byz_mask_retries_total{node="7"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing series %q in:\n%s", want, out)
		}
	}
	// Prometheus grouping: exactly one header per metric name.
	if n := strings.Count(out, "# HELP abd_health_alerts_total"); n != 1 {
		t.Fatalf("alerts_total header emitted %d times", n)
	}
	if n := strings.Count(out, "# HELP abd_health_hot_key_ops_total"); n != 1 {
		t.Fatalf("hot_key_ops_total header emitted %d times", n)
	}
}
