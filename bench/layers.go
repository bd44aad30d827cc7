package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tcpnet"
)

// snapshot is every counter the benchmark reads at a window's edge. The
// difference of two is what the steady window cost, layer by layer.
type snapshot struct {
	selfCPU time.Duration
	nodeCPU []time.Duration

	client     core.MetricsSnapshot // summed over the loadgen's clients
	ep         tcpnet.Stats         // summed over their endpoints
	flushLat   obs.HistSnapshot
	scrapes    []map[string]float64 // per node; nil on an end-to-end run
	rss        float64              // bytes, all nodes
	writeBytes float64              // bytes sent to storage, all nodes
}

// snapshot reads the CPU clocks always and, on a per-layer run, everything
// else. The /metrics scrapes make the nodes do work (a stop-the-world
// ReadMemStats each), which is why end-to-end runs skip them.
func (d *driver) snapshot(ctx context.Context, layers bool) snapshot {
	s := snapshot{selfCPU: selfCPU()}
	for _, n := range d.cluster.nodes {
		s.nodeCPU = append(s.nodeCPU, n.cpu())
	}
	if !layers {
		return s
	}
	for i, cl := range d.plain.clients {
		s.client = s.client.Merge(cl.Metrics())
		ep := d.plain.eps[i]
		st := ep.Stats()
		s.ep.FramesSent += st.FramesSent
		s.ep.BytesSent += st.BytesSent
		s.ep.BytesRecv += st.BytesRecv
		s.ep.Flushes += st.Flushes
		s.ep.QueueDrops += st.QueueDrops
		s.ep.DialFailures += st.DialFailures
		s.ep.BreakerOpens += st.BreakerOpens
		s.flushLat = s.flushLat.Merge(ep.FlushLatency())
	}
	for _, n := range d.cluster.nodes {
		m, err := n.scrape(ctx)
		if err != nil {
			m = nil // a node that is down (the crash workload's) has nothing to report
		}
		s.scrapes = append(s.scrapes, m)
		if pid := n.pid(); pid != 0 && !n.exited() {
			s.rss += procRSS(pid)
			s.writeBytes += procWriteBytes(pid)
		}
	}
	return s
}

// histDelta returns the observations b holds beyond a. Both come from one
// histogram that only grows; the maximum cannot be un-merged, so b's is kept.
func histDelta(a, b obs.HistSnapshot) obs.HistSnapshot {
	out := obs.HistSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max, Buckets: make([]int64, len(b.Buckets))}
	copy(out.Buckets, b.Buckets)
	for i := range a.Buckets {
		out.Buckets[i] -= a.Buckets[i]
	}
	return out
}

// seriesDelta sums one counter's growth over the nodes. A node whose
// counter went backwards was restarted inside the window: what its new
// incarnation counted is all that can be known of it.
func seriesDelta(a, b snapshot, name string) float64 {
	var d float64
	for i := range b.scrapes {
		after := b.scrapes[i][name]
		var before float64
		if i < len(a.scrapes) {
			before = a.scrapes[i][name]
		}
		if after < before {
			before = 0
		}
		d += after - before
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerExtras are the per-layer numbers that do not come from a counter.
type layerExtras struct {
	loadgenCPU, nodeCPU time.Duration
	lagP99              time.Duration
	inFlightMax         int64
	satGoodput          float64
	replay              time.Duration
	maxRate             float64 // last ladder rung before the first that failed
	readP99, writeP99   float64 // µs, p99 over the whole steady window
}

// layerMetrics turns the steady window's counter deltas into the per-layer
// metrics BENCHMARK.json lists (the probes and the traced window add theirs
// afterwards). Every name is always present, zero when its layer did
// nothing, so that every workload reports the same set.
func layerMetrics(a, b snapshot, steady phaseSamples, x layerExtras) map[string]float64 {
	ops := float64(steady.Completed)
	reads := float64(b.client.Reads - a.client.Reads)
	writes := float64(b.client.Writes - a.client.Writes)
	flush := histDelta(a.flushLat, b.flushLat)
	updates := seriesDelta(a, b, "abd_replica_updates_total")

	var gcP99 float64
	for _, m := range b.scrapes {
		if v := m["abd_prof_gc_pause_p99_seconds"]; v > gcP99 {
			gcP99 = v
		}
	}
	storage := b.writeBytes - a.writeBytes
	if storage < 0 {
		storage = b.writeBytes // a node restarted inside the window
	}

	return map[string]float64{
		"client.rounds_per_read":     ratio(float64(b.client.ReadRounds-a.client.ReadRounds), reads),
		"client.fast_hit_frac":       ratio(float64(b.client.FastPathReads-a.client.FastPathReads), reads),
		"client.writebacks_per_read": ratio(float64(b.client.WriteBacks-a.client.WriteBacks), reads),
		"client.coalesced_read_frac": ratio(float64(b.client.CoalescedReads-a.client.CoalescedReads), reads),
		"client.absorbed_write_frac": ratio(float64(b.client.AbsorbedWrites-a.client.AbsorbedWrites), writes),
		"client.msgs_per_op":         ratio(float64(b.client.MsgsSent-a.client.MsgsSent), reads+writes),
		"client.retransmits_per_kop": 1000 * ratio(float64(b.client.Retransmits-a.client.Retransmits), reads+writes),

		"tcpnet.payloads_per_flush": ratio(float64(b.ep.FramesSent-a.ep.FramesSent), float64(b.ep.Flushes-a.ep.Flushes)),
		"tcpnet.flush_p50_us":       micros(flush.Quantile(0.50)),
		"tcpnet.flush_p99_us":       micros(flush.Quantile(0.99)),
		"tcpnet.bytes_per_op":       ratio(float64(b.ep.BytesSent-a.ep.BytesSent+b.ep.BytesRecv-a.ep.BytesRecv), ops),
		"tcpnet.queue_drops":        float64(b.ep.QueueDrops - a.ep.QueueDrops),
		"tcpnet.breaker_opens":      float64(b.ep.BreakerOpens - a.ep.BreakerOpens),
		"tcpnet.dial_failures":      float64(b.ep.DialFailures - a.ep.DialFailures),

		"replica.batch_mean":            ratio(updates, seriesDelta(a, b, "abd_replica_batches_total")),
		"replica.stale_rejects_per_kop": 1000 * ratio(seriesDelta(a, b, "abd_replica_stale_rejects_total"), ops),
		"replica.queries_per_op":        ratio(seriesDelta(a, b, "abd_replica_queries_total"), ops),
		"replica.updates_per_op":        ratio(updates, ops),

		"wal.fsyncs_per_write": ratio(seriesDelta(a, b, "abd_replica_fsyncs_total"), writes),
		"wal.bytes_per_write":  ratio(storage, writes),
		"wal.replay_s":         x.replay.Seconds(),

		"node.cpu_us_per_op":   ratio(micros(x.nodeCPU), ops),
		"node.allocs_per_op":   ratio(seriesDelta(a, b, "abd_prof_alloc_objects_total"), ops),
		"node.rss_mb":          b.rss / (1 << 20),
		"node.gc_pause_p99_us": gcP99 * 1e6,

		"loadgen.cpu_us_per_op":     ratio(micros(x.loadgenCPU), ops),
		"loadgen.lag_p99_us":        micros(x.lagP99),
		"loadgen.inflight_max":      float64(x.inFlightMax),
		"loadgen.sat_goodput_ops_s": x.satGoodput,

		// The three numbers ISSUE 11 wanted end to end and this sandbox is
		// too unsteady to gate on (README, "What is not an end-to-end metric").
		"ladder.max_rate_ops_s": x.maxRate,
		"tail.read_p99_us":      x.readP99,
		"tail.write_p99_us":     x.writeP99,
	}
}
