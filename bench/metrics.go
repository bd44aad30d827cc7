package main

// The metric names and units the benchmark reports. BENCHMARK.json lists
// the same names; the manifest test keeps the two in step.

var endToEndOrder = []string{"setup_s", "read_p50_us", "write_p50_us", "cpu_us_per_op"}

var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"read_p50_us":   "us",
	"write_p50_us":  "us",
	"cpu_us_per_op": "us",
}

var perLayerUnits = map[string]string{
	// Counter deltas over the steady window.
	"client.rounds_per_read":     "count",
	"client.fast_hit_frac":       "frac",
	"client.writebacks_per_read": "count",
	"client.coalesced_read_frac": "frac",
	"client.absorbed_write_frac": "frac",
	"client.msgs_per_op":         "count",
	"client.retransmits_per_kop": "count",

	"tcpnet.payloads_per_flush": "count",
	"tcpnet.flush_p50_us":       "us",
	"tcpnet.flush_p99_us":       "us",
	"tcpnet.bytes_per_op":       "B",
	"tcpnet.queue_drops":        "count",
	"tcpnet.breaker_opens":      "count",
	"tcpnet.dial_failures":      "count",

	"replica.batch_mean":            "count",
	"replica.stale_rejects_per_kop": "count",
	"replica.queries_per_op":        "count",
	"replica.updates_per_op":        "count",

	"wal.fsyncs_per_write": "count",
	"wal.bytes_per_write":  "B",
	"wal.replay_s":         "s",

	"node.cpu_us_per_op":   "us",
	"node.allocs_per_op":   "count",
	"node.rss_mb":          "MB",
	"node.gc_pause_p99_us": "us",

	"loadgen.cpu_us_per_op":     "us",
	"loadgen.lag_p99_us":        "us",
	"loadgen.inflight_max":      "count",
	"loadgen.sat_goodput_ops_s": "1/s",

	"ladder.max_rate_ops_s": "1/s",
	"tail.read_p99_us":      "us",
	"tail.write_p99_us":     "us",

	// Layer probes, in-process.
	"wire.seal_ns":          "ns",
	"wire.open_ns":          "ns",
	"wire.seal_allocs":      "count",
	"wire.open_allocs":      "count",
	"wire.batch_split_ns":   "ns",
	"tcpnet.rtt_us":         "us",
	"replica.handle_ns":     "ns",
	"replica.handle_allocs": "count",
	"wal.handle_ns":         "ns",
	"wal.handle_allocs":     "count",
	"client.read_ns":        "ns",
	"client.write_ns":       "ns",
	"client.read_allocs":    "count",
	"client.write_allocs":   "count",
	"shard.lookup_ns":       "ns",

	// Traced window.
	"trace.read.client_us":      "us",
	"trace.read.net_us":         "us",
	"trace.read.handler_us":     "us",
	"trace.read.fsync_us":       "us",
	"trace.write.client_us":     "us",
	"trace.write.net_us":        "us",
	"trace.write.handler_us":    "us",
	"trace.write.fsync_us":      "us",
	"trace.stitch_frac":         "frac",
	"trace.read.sum_over_p50":   "frac",
	"trace.write.sum_over_p50":  "frac",
	"trace.read.overhead_frac":  "frac",
	"trace.write.overhead_frac": "frac",
}
