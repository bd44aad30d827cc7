package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// layerTimes is one traced operation's critical path split by layer, in the
// decomposition cmd/abd-trace prints: per phase, the quorum-closing
// replica's handler interval splits into fsync (its wal-append children)
// and handler time, the rest of that reply's round trip is network
// (both legs plus transport queueing), and client is what remains of the
// operation. The four therefore sum to the operation span's duration.
type layerTimes struct {
	Client, Net, Handler, Fsync time.Duration
}

func decompose(root *obs.TraceNode) layerTimes {
	var lt layerTimes
	for _, ch := range root.Children {
		if ch.Span.Kind != "phase" {
			continue
		}
		p := ch.Span
		closer, best := int64(-1), time.Duration(-1)
		for id, rtt := range p.ReplicaRTT {
			if rtt > best {
				closer, best = id, rtt
			}
		}
		var handle *obs.TraceNode
		for _, h := range ch.Children {
			if h.Span.Kind == "handle" && (closer < 0 || h.Span.Node == closer) {
				handle = h
				break
			}
		}
		if handle == nil {
			lt.Net += p.LastReply
			continue
		}
		var wal time.Duration
		for _, g := range handle.Children {
			if g.Span.Kind == "wal-append" {
				wal += g.Span.Dur
			}
		}
		lt.Fsync += wal
		lt.Handler += max(0, handle.Span.Dur-wal)
		lt.Net += max(0, p.LastReply-handle.Span.Dur)
	}
	lt.Client = max(0, root.Span.Dur-lt.Net-lt.Handler-lt.Fsync)
	return lt
}

// traceMetrics stitches the loadgen's spans with the nodes' span files and
// adds the trace.* metrics: the median per-layer self time of a read and of
// a write, how much of the remote picture stitched, the layer sum against
// the untraced p50, and what tracing itself cost.
func traceMetrics(out map[string]float64, c *cluster, local []obs.Span, untraced, traced phaseSamples) error {
	col := obs.NewCollector(1 << 22)
	for _, n := range c.nodes {
		f, err := os.Open(n.spans)
		if err != nil {
			return fmt.Errorf("node %d span file: %w", n.id, err)
		}
		_, err = col.IngestJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("node %d span file: %w", n.id, err)
		}
	}
	spans := append(col.Spans(), local...)
	out["trace.stitch_frac"] = obs.Stitch(spans).Ratio()

	parts := map[string]*[4][]time.Duration{"read": {}, "write": {}}
	for _, t := range obs.AssembleTraces(spans) {
		if t.Root == nil || t.Root.Span.Err != "" {
			continue
		}
		lt := decompose(t.Root)
		p := parts[t.Root.Span.Kind]
		p[0] = append(p[0], lt.Client)
		p[1] = append(p[1], lt.Net)
		p[2] = append(p[2], lt.Handler)
		p[3] = append(p[3], lt.Fsync)
	}
	for kind, p := range parts {
		var sum time.Duration
		for i, layer := range []string{"client_us", "net_us", "handler_us", "fsync_us"} {
			m := percentile(sortDurations(p[i]), 0.50)
			sum += m
			out["trace."+kind+"."+layer] = micros(m)
		}
		base, with := untraced.Reads, traced.Reads
		if kind == "write" {
			base, with = untraced.Writes, traced.Writes
		}
		p50 := micros(quietPercentile(base, untraced.Dur, 0.50))
		out["trace."+kind+".sum_over_p50"] = ratio(micros(sum), p50)
		out["trace."+kind+".overhead_frac"] = ratio(micros(quietPercentile(with, traced.Dur, 0.50)), p50) - 1
	}
	return nil
}
