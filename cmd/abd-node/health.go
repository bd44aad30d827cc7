package main

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/prof"
	"repro/internal/tcpnet"
)

// watermarkLimit bounds how many registers the node reports tag watermarks
// for on /status — the hottest-by-sequence ones, which is where lag is
// interesting.
const watermarkLimit = 128

// nodeHealth assembles one node's live health view: its replica's tag
// watermarks and the embedded probe client's hot keys, SLO burn state and
// Byzantine counters. Lag stays nil — a node sees only its own replica, so
// cross-replica divergence is computed by whoever polls every node's
// watermarks (`abd-cli top` does, via health.ComputeLag).
type nodeHealth struct {
	start    time.Time
	replica  *core.Replica
	ep       *tcpnet.Endpoint
	prober   *core.Client
	proberEp *tcpnet.Endpoint

	// sampler feeds the abd_prof_* runtime series on /metrics; recorder is
	// the anomaly-triggered flight recorder (nil without -prof-dir).
	sampler  *prof.Sampler
	recorder *prof.Recorder

	mu      sync.Mutex
	tracker *health.Tracker
	// pending accumulates the tracker's fresh (edge-triggered) alerts so
	// the flight-recorder watchdog sees every alert even when a /status or
	// /metrics scrape ran the evaluation that raised it.
	pending []health.Alert
}

func newNodeHealth(replica *core.Replica, ep *tcpnet.Endpoint, prober *core.Client, proberEp *tcpnet.Endpoint) *nodeHealth {
	return &nodeHealth{
		start:    time.Now(),
		replica:  replica,
		ep:       ep,
		prober:   prober,
		proberEp: proberEp,
		sampler:  prof.NewSampler(prof.DefaultEpoch),
		tracker:  health.NewTracker(health.DefaultSLO()),
	}
}

// status samples the node's cumulative counters into one health.Status:
// the embedded probe client's hot keys, SLO burn state and Byzantine
// verdict (core.Fleet.Health), plus the node's id, uptime and replica
// watermarks. Each call ingests the probe client's current totals into the
// SLO tracker, so scraping /status (or /metrics) at any cadence yields
// correct sliding-window burn rates.
func (h *nodeHealth) status() health.Status {
	var st health.Status
	if h.prober != nil {
		h.mu.Lock()
		var fresh []health.Alert
		st, fresh = core.Fleet{h.prober}.Health(h.tracker, time.Now())
		h.pending = append(h.pending, fresh...)
		h.mu.Unlock()
	}
	st.Node = int64(h.replica.ID())
	st.UptimeSeconds = time.Since(h.start).Seconds()
	wm := h.replica.TagWatermarks(watermarkLimit)
	st.Watermarks = &wm
	return st
}

// watch is the flight-recorder watchdog's poll: it runs one evaluation
// (via status) and drains the alerts accumulated since the last check.
// Every fresh alert is a capture trigger.
func (h *nodeHealth) watch() []health.Alert {
	_ = h.status()

	h.mu.Lock()
	fresh := h.pending
	h.pending = nil
	h.mu.Unlock()
	return fresh
}
