package health

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"

	"repro/internal/obs"
)

// ByzStatus mirrors a client's Byzantine read-validation counters (see
// core.WithByzantine). Suspects is the liar verdict: per replica, how many
// of its replies were evidence no honest replica can produce (empty in an
// honest run). Unconfirmed counts query rounds that saw a pair ahead of the
// vouched one without f+1 support — an in-flight write or a lie, a rate and
// not an accusation; MaskRetries counts query rounds abandoned because no
// pair had f+1 matching reporters. ToleratedFaults is the f the client
// validates against.
type ByzStatus struct {
	ToleratedFaults int64           `json:"tolerated_faults"`
	Suspects        map[int64]int64 `json:"suspects,omitempty"`
	Unconfirmed     int64           `json:"unconfirmed"`
	MaskRetries     int64           `json:"mask_retries"`
}

// Status is the /status endpoint's body: one process's live health view.
// A single-process cluster facade fills everything; a deployment node
// fills its own watermarks and hot keys and leaves Lag to be computed by
// whoever sees every node (abd-top does, via ComputeLag over the polled
// Watermarks).
type Status struct {
	Node          int64   `json:"node"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	HotKeys     []HotKey `json:"hot_keys"`
	HotKeyTotal int64    `json:"hot_key_total"`

	// Watermarks is this process's own replica watermark report (nil when
	// the process hosts no replica).
	Watermarks *ReplicaTags `json:"watermarks,omitempty"`
	// Lag is the cluster-wide divergence picture (nil when this process
	// cannot see every replica).
	Lag *LagReport `json:"lag,omitempty"`

	SLO    *SLOStatus `json:"slo,omitempty"`
	Alerts []Alert    `json:"alerts"`
	// Byzantine reports the process's read-validation counters (nil when
	// no client of the process runs in Byzantine mode).
	Byzantine *ByzStatus `json:"byzantine,omitempty"`
}

// Handler serves fn's Status as indented JSON on every GET. Mount it at
// /status next to obs.ExposeFull's endpoints.
func Handler(fn func() Status) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		st := fn()
		if st.Alerts == nil {
			st.Alerts = []Alert{}
		}
		if st.HotKeys == nil {
			st.HotKeys = []HotKey{}
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}

// WriteMetrics renders the status as abd_health_* Prometheus series on the
// writer. Call it from a Gatherer after the node's other series.
func WriteMetrics(w *obs.Writer, labels obs.Labels, st Status) {
	for _, hk := range st.HotKeys {
		w.Counter("abd_health_hot_key_ops_total",
			"Estimated operations on a tracked hot register (space-saving sketch).",
			withLabel(labels, "reg", hk.Key), hk.Count)
	}
	w.Counter("abd_health_tracked_ops_total",
		"Operations absorbed by the hot-key sketch.", labels, st.HotKeyTotal)

	if st.SLO != nil {
		for _, win := range st.SLO.Windows {
			w.Gauge("abd_health_slo_burn",
				"SLO burn rate over each evaluation window.",
				withLabel(labels, "window_seconds", fmt.Sprintf("%g", win.WindowSeconds)),
				win.Burn)
		}
		w.Gauge("abd_health_slo_page_active",
			"1 while the page burn-rate condition holds.",
			labels, boolGauge(st.SLO.PageActive))
		w.Gauge("abd_health_slo_ticket_active",
			"1 while the ticket burn-rate condition holds.",
			labels, boolGauge(st.SLO.TicketActive))
	}

	var pages, tickets int64
	for _, a := range st.Alerts {
		if a.Severity == SeverityPage {
			pages++
		} else {
			tickets++
		}
	}
	w.Counter("abd_health_alerts_total", "Burn-rate alerts raised.",
		withLabel(labels, "severity", string(SeverityPage)), pages)
	w.Counter("abd_health_alerts_total", "Burn-rate alerts raised.",
		withLabel(labels, "severity", string(SeverityTicket)), tickets)

	if st.Watermarks != nil {
		regs := make([]string, 0, len(st.Watermarks.Tags))
		for reg := range st.Watermarks.Tags {
			regs = append(regs, reg)
		}
		sort.Strings(regs)
		for _, reg := range regs {
			w.Gauge("abd_health_watermark_seq",
				"Max installed tag sequence per sampled register on this replica.",
				withLabel(labels, "reg", reg), float64(st.Watermarks.Tags[reg].Seq))
		}
	}

	if st.Lag != nil {
		for _, rl := range st.Lag.Replicas {
			nodeLabels := withLabel(labels, "replica", fmt.Sprintf("%d", rl.Node))
			w.Gauge("abd_health_replica_behind_registers",
				"Registers on which the replica trails the quorum-confirmed tag.",
				nodeLabels, float64(rl.Behind))
		}
		for _, rl := range st.Lag.Replicas {
			nodeLabels := withLabel(labels, "replica", fmt.Sprintf("%d", rl.Node))
			w.Gauge("abd_health_replica_max_seq_lag",
				"Worst tag-sequence gap behind the quorum-confirmed watermark.",
				nodeLabels, float64(rl.MaxSeqLag))
		}
	}

	if st.Byzantine != nil {
		w.Gauge("abd_health_byz_tolerated_faults",
			"Lying replicas (f) the client's read validation tolerates.",
			labels, float64(st.Byzantine.ToleratedFaults))
		for _, id := range slices.Sorted(maps.Keys(st.Byzantine.Suspects)) {
			w.Counter("abd_health_byz_suspicions_total",
				"Replies from the replica that were evidence of lying (a vouched tag with another value, or a tag going back).",
				withLabel(labels, "replica", fmt.Sprintf("%d", id)), st.Byzantine.Suspects[id])
		}
		w.Counter("abd_health_byz_unconfirmed_total",
			"Query rounds that saw a pair ahead of the vouched one without f+1 support.",
			labels, st.Byzantine.Unconfirmed)
		w.Counter("abd_health_byz_mask_retries_total",
			"Query rounds retried because no pair had f+1 matching reporters.",
			labels, st.Byzantine.MaskRetries)
	}
}

func withLabel(l obs.Labels, k, v string) obs.Labels {
	out := make(obs.Labels, len(l)+1)
	for key, val := range l {
		out[key] = val
	}
	out[k] = v
	return out
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
