// Command abd-node runs one ABD replica over TCP. A replica group of n
// nodes emulates atomic registers tolerating any ⌊(n-1)/2⌋ crashes.
//
// Usage:
//
//	abd-node -id 0 -listen 127.0.0.1:7000 [-bounded-window L] \
//	         [-metrics-addr 127.0.0.1:9100] \
//	         [-peers "0=127.0.0.1:7000,1=...,2=..." -probe-interval 1s]
//
// Replicas need no peer table: they answer clients over the connections the
// clients opened. With -metrics-addr set, the node serves Prometheus text
// metrics on /metrics (client, replica, transport, and process series — see
// the README's Observability section for the naming conventions), a JSON
// health report on /healthz (uptime, build revision, span-drop counter), a
// live introspection report on /status (tag watermarks, hot keys, SLO burn
// state, Byzantine counters — the feed abd-top renders), and the span
// collector on /spans (GET pulls collected spans as JSONL for abd-trace;
// POST pushes spans from another process). -pprof additionally mounts
// net/http/pprof under /debug/pprof/ on the same mux. With -peers also set,
// the node runs an embedded probe client against the whole replica group:
// one end-to-end write+read pair per -probe-interval, whose latency
// histograms populate the abd_client_* series (without -peers those series
// export zero samples) and whose spans — with -trace-out or -metrics-addr —
// trace each probe through transport, replica handler, and WAL append.
// -prof-dir arms the anomaly-triggered flight recorder: a watchdog polls the
// node's health every -prof-check-interval and captures CPU/heap/goroutine
// profiles into a bounded on-disk ring (-prof-captures sets, oldest evicted)
// whenever an SLO burn alert fires, so the profiles of an incident are on
// disk before anyone starts debugging it.
// Captured and /debug/pprof profiles are plain pprof files for
// `go tool pprof` (e.g. `-top -diff_base old.pprof new.pprof`).
// -mutex-profile-fraction and -block-profile-rate enable the contention
// profilers (off by default; both cost CPU proportional to the sampled event
// rate). While a runtime/trace session runs (/debug/pprof/trace), probe
// operations show up as trace tasks with quorum phases as regions.
// SIGINT/SIGTERM shut the node down gracefully: the probe client stops, the
// WAL is compacted to one record per register, the replica drains, and the
// final counters are printed; a second signal kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id       = flag.Int("id", 0, "this replica's node id")
		listen   = flag.String("listen", "127.0.0.1:7000", "TCP listen address")
		bounded  = flag.Int64("bounded-window", 0, "enable bounded labels with this liveness window (0 = unbounded)")
		wal      = flag.String("wal", "", "write-ahead log path for crash-recovery (empty = in-memory only)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /status on this address (empty = disabled)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the metrics address")
		peers    = flag.String("peers", "", "replica addresses id=host:port,... for the embedded probe client (empty = no probing)")
		probeIv  = flag.Duration("probe-interval", time.Second, "end-to-end probe period when -peers is set")
		byzF     = flag.Int("byz", 0, "probe with Byzantine read validation tolerating this many lying replicas (requires -peers with n >= 4f+1; surfaces abd_health_byz_* series)")
		traceOut = flag.String("trace-out", "", "write every span (replica handlers, WAL appends, transport hops, probe ops) as JSONL to this file for abd-trace")

		profDir      = flag.String("prof-dir", "", "arm the anomaly-triggered flight recorder: capture CPU/heap/goroutine profiles into this directory on SLO burn alerts (bounded ring, oldest evicted)")
		profCaptures = flag.Int("prof-captures", 8, "flight-recorder ring size (capture sets kept on disk)")
		profCPUSecs  = flag.Float64("prof-cpu-seconds", 1, "CPU profile duration per flight-recorder capture")
		profCheckIv  = flag.Duration("prof-check-interval", 5*time.Second, "flight-recorder anomaly poll period")
		mutexFrac    = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction: sample 1/n mutex contention events for /debug/pprof/mutex (0 = off; small n costs a few percent under contention)")
		blockRate    = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate: sample blocking events >= n ns for /debug/pprof/block (0 = off; 1 samples everything and is expensive)")
	)
	flag.Parse()

	// Contention profilers are opt-in: both sample globally and cost CPU in
	// proportion to the sampled event rate, so default off and document the
	// price on the flag.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	// Tracing is armed whenever anything can consume the spans: a -trace-out
	// file, or the /spans endpoint next to /metrics. It stays zero-cost for
	// untraced traffic either way — the replica and transport only emit spans
	// for messages that arrive carrying a trace context.
	var (
		spanCol    *obs.Collector
		tracer     obs.Tracer
		traceFile  *os.File
		traceJSONL *obs.JSONL
	)
	if *traceOut != "" || *metrics != "" {
		spanCol = obs.NewCollector(0)
		tracer = spanCol
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-node: %v\n", err)
			return 1
		}
		traceFile, traceJSONL = f, obs.NewJSONL(f)
		tracer = obs.Multi{spanCol, traceJSONL}
	}

	ep, err := tcpnet.Listen(tcpnet.Config{
		ID:         types.NodeID(*id),
		ListenAddr: *listen,
		Tracer:     tracer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-node: %v\n", err)
		return 1
	}

	var ropts []core.ReplicaOption
	if *bounded > 0 {
		ropts = append(ropts, core.WithReplicaBoundedWindow(*bounded))
	}
	if tracer != nil {
		ropts = append(ropts, core.WithReplicaTracer(tracer))
	}
	var replica *core.Replica
	if *wal != "" {
		replica, err = core.NewPersistentReplica(types.NodeID(*id), ep, *wal, ropts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-node: %v\n", err)
			return 1
		}
	} else {
		replica = core.NewReplica(types.NodeID(*id), ep, ropts...)
	}
	replica.Start()
	fmt.Printf("abd-node: replica %d serving on %s\n", *id, ep.Addr())

	var prober *core.Client
	var proberEp *tcpnet.Endpoint
	if *peers != "" {
		prober, proberEp, err = startProber(types.NodeID(*id), *peers, *probeIv, *byzF, tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-node: probe client: %v\n", err)
			return 1
		}
	} else if *byzF > 0 {
		fmt.Fprintln(os.Stderr, "abd-node: -byz requires -peers; ignoring")
	}

	nh := newNodeHealth(replica, ep, prober, proberEp)
	watchStop := make(chan struct{})
	if *profDir != "" {
		rec, err := prof.NewRecorder(prof.RecorderConfig{
			Dir:         *profDir,
			MaxCaptures: *profCaptures,
			CPUSeconds:  *profCPUSecs,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-node: flight recorder: %v\n", err)
			return 1
		}
		nh.recorder = rec
		go watchAnomalies(nh, *profCheckIv, watchStop)
		fmt.Printf("abd-node: flight recorder armed (dir %s, ring %d, cpu %.1fs)\n",
			*profDir, *profCaptures, *profCPUSecs)
	}

	var srv *http.Server
	if *metrics != "" {
		mux := newNodeMux(nh, spanCol, *pprofOn)
		srv = &http.Server{Addr: *metrics, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "abd-node: metrics server: %v\n", err)
			}
		}()
		fmt.Printf("abd-node: metrics on http://%s/metrics\n", *metrics)
	} else if *pprofOn {
		fmt.Fprintln(os.Stderr, "abd-node: -pprof requires -metrics-addr; ignoring")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	signal.Stop(sig) // a second signal kills the process the default way
	fmt.Printf("abd-node: %v: shutting down\n", s)

	// Orderly teardown: stop taking probe traffic, compact the WAL down to
	// one record per register while the replica is still consistent, then
	// stop the replica (closes the endpoint, drains the message loop, and
	// closes the log). The metrics server goes last so a final scrape can
	// still observe the drained counters.
	close(watchStop)
	if nh.recorder != nil {
		nh.recorder.Close() // waits out an in-flight capture
		rs := nh.recorder.Stats()
		fmt.Printf("abd-node: flight recorder: %d triggered, %d captured, %d skipped, %d evicted\n",
			rs.Triggered, rs.Captured, rs.Skipped, rs.Evicted)
	}
	if prober != nil {
		prober.Close()
	}
	if err := replica.CompactLog(); err != nil {
		fmt.Fprintf(os.Stderr, "abd-node: wal compaction: %v\n", err)
	}
	replica.Stop()
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(sctx)
		cancel()
	}
	if traceJSONL != nil {
		if err := traceJSONL.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "abd-node: trace file: %v\n", err)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "abd-node: trace file: %v\n", err)
		}
		fmt.Printf("abd-node: %d spans written to %s (%d dropped from /spans buffer)\n",
			spanCol.Len(), *traceOut, spanCol.Dropped())
	}
	st := replica.ReplicaMetrics()
	ts := ep.Stats()
	fmt.Printf("abd-node: stopped (queries=%d updates=%d adoptions=%d stale=%d registers=%d "+
		"frames_sent=%d write_timeouts=%d suppressed=%d)\n",
		st.Queries, st.Updates, st.Adoptions, st.StaleRejects, st.Registers,
		ts.FramesSent, ts.WriteTimeouts, ts.SuppressedSends)
	return 0
}

// watchAnomalies is the flight-recorder watchdog: every interval it drains
// the health tracker's fresh burn alerts and pulls the recorder's trigger
// for each. The recorder's cooldown and single-flight gate bound the
// capture rate no matter how noisy the alerts get.
func watchAnomalies(nh *nodeHealth, interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for _, a := range nh.watch() {
				nh.recorder.Trigger("slo-" + string(a.Severity))
			}
		}
	}
}

// newNodeMux assembles the node's HTTP surface: the obs endpoints
// (/metrics, /healthz, /spans) at the root, the live health report on
// /status, and — when enabled — net/http/pprof under /debug/pprof/.
func newNodeMux(nh *nodeHealth, spans *obs.Collector, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", obs.ExposeFull(nodeGatherer(nh), spans))
	mux.Handle("/status", health.Handler(nh.status))
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// startProber connects an embedded client to the replica group and probes
// one end-to-end write+read pair per interval against a per-node register,
// so the node's own /metrics carries real client-side latency histograms.
// The goroutine stops when the returned client is closed. With a tracer the
// probe operations are traced end to end, so a node group with -trace-out
// (or the /spans endpoint) continuously self-samples its own critical path.
func startProber(id types.NodeID, peersSpec string, interval time.Duration, byz int, tracer obs.Tracer) (*core.Client, *tcpnet.Endpoint, error) {
	peers, order, err := parsePeers(peersSpec)
	if err != nil {
		return nil, nil, err
	}
	// Client ids live in a range disjoint from replica ids.
	cliID := 9000 + id
	ep, err := tcpnet.Listen(tcpnet.Config{ID: cliID, Peers: peers, Tracer: tracer})
	if err != nil {
		return nil, nil, err
	}
	var copts []core.ClientOption
	if tracer != nil {
		copts = append(copts, core.WithTracer(tracer))
	}
	if byz > 0 {
		copts = append(copts, core.WithByzantine(byz))
	}
	cli, err := core.NewClient(cliID, ep, order, copts...)
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	reg := fmt.Sprintf("__probe.%d", id)
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for i := 0; ; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			err := cli.Write(ctx, reg, []byte(strconv.Itoa(i)))
			if err == nil {
				_, err = cli.Read(ctx, reg)
			}
			cancel()
			if errors.Is(err, types.ErrClosed) {
				return
			}
			<-tick.C
		}
	}()
	return cli, ep, nil
}

// parsePeers parses "0=host:port,1=host:port"; replica order (and quorum
// indexing) is ascending id, matching abd-cli.
func parsePeers(s string) (map[types.NodeID]string, []types.NodeID, error) {
	peers := make(map[types.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		idS, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(idS)
		if err != nil {
			return nil, nil, fmt.Errorf("bad peer id %q: %w", idS, err)
		}
		if _, dup := peers[types.NodeID(id)]; dup {
			return nil, nil, fmt.Errorf("duplicate peer id %d", id)
		}
		peers[types.NodeID(id)] = addr
	}
	order := make([]types.NodeID, 0, len(peers))
	for id := range peers {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return peers, order, nil
}

// nodeGatherer exposes the probe client's latency histograms, the replica's
// protocol counters, the TCP transport counters, the node's uptime, the
// abd_health_* series and the abd_prof_* runtime series, all labeled with
// the node id. The prober may be nil; the client series are still exported,
// with zero samples. When the probe endpoint exists its transport counters
// are exported under the same series names with an extra endpoint="probe"
// label — that endpoint dials the whole replica group, so it is where
// dial failures and suppressed sends show when a peer replica dies.
func nodeGatherer(nh *nodeHealth) obs.Gatherer {
	replica, ep, prober, proberEp := nh.replica, nh.ep, nh.prober, nh.proberEp
	labels := obs.Labels{"node": strconv.FormatInt(int64(replica.ID()), 10)}
	return func(w *obs.Writer) {
		var lat core.LatencySnapshot
		var cm core.MetricsSnapshot
		if prober != nil {
			lat = prober.Latency()
			cm = prober.Metrics()
		}
		w.Histogram("abd_client_read_seconds", "end-to-end read latency (embedded probe client)", labels, lat.Read)
		w.Histogram("abd_client_write_seconds", "end-to-end write latency (embedded probe client)", labels, lat.Write)
		w.Histogram("abd_client_phase_query_seconds", "query phase latency (embedded probe client)", labels, lat.PhaseQuery)
		w.Histogram("abd_client_phase_update_seconds", "update/write-back phase latency (embedded probe client)", labels, lat.PhaseUpdate)
		w.Counter("abd_client_phases_total", "broadcast-and-collect rounds run by the probe client", labels, cm.Phases)
		w.Counter("abd_client_msgs_sent_total", "request messages sent by the probe client", labels, cm.MsgsSent)
		w.Counter("abd_client_fast_path_reads_total", "reads completed in one round: the repliers holding the pair contain a write quorum", labels, cm.FastPathReads)
		w.Counter("abd_client_read_rounds_total", "quorum rounds paid by completed reads (rounds/read = mean read cost)", labels, cm.ReadRounds)
		w.Histogram("abd_client_read_rounds", "quorum rounds per completed read (1 = fast path)", labels, lat.ReadRounds)
		rm := replica.ReplicaMetrics()
		w.Counter("abd_replica_queries_total", "read queries handled", labels, rm.Queries)
		w.Counter("abd_replica_updates_total", "write/update requests handled", labels, rm.Updates)
		w.Counter("abd_replica_adoptions_total", "updates that replaced the stored pair", labels, rm.Adoptions)
		w.Counter("abd_replica_stale_rejects_total", "updates with a tag at or below the stored one", labels, rm.StaleRejects)
		w.Counter("abd_replica_order_violations_total", "bounded-mode comparisons outside the sound window", labels, rm.OrderViolations)
		w.Counter("abd_replica_bad_msgs_total", "undecodable payloads", labels, rm.BadMsgs)
		w.Counter("abd_replica_batches_total", "group commits (updates/batches = mean writes per commit)", labels, rm.Batches)
		w.Counter("abd_replica_fsyncs_total", "WAL flushes issued; under load stays below adoptions (group-commit amortization)", labels, rm.Fsyncs)
		w.Gauge("abd_replica_registers", "named registers stored", labels, float64(rm.Registers))

		transport := func(lb obs.Labels, ts tcpnet.Stats) {
			w.Counter("abd_transport_frames_sent_total", "TCP frames written", lb, ts.FramesSent)
			w.Counter("abd_transport_frames_recv_total", "TCP frames parsed", lb, ts.FramesRecv)
			w.Counter("abd_transport_bytes_sent_total", "TCP bytes written (incl. frame headers)", lb, ts.BytesSent)
			w.Counter("abd_transport_bytes_recv_total", "TCP bytes parsed (incl. frame headers)", lb, ts.BytesRecv)
			w.Counter("abd_transport_dials_total", "outbound connections established", lb, ts.Dials)
			w.Counter("abd_transport_dial_failures_total", "outbound connection attempts that failed", lb, ts.DialFailures)
			w.Counter("abd_transport_accepts_total", "inbound connections accepted", lb, ts.Accepts)
			w.Counter("abd_transport_write_failures_total", "frame writes that errored", lb, ts.WriteFailures)
			w.Counter("abd_transport_write_timeouts_total", "frame writes that missed the write deadline", lb, ts.WriteTimeouts)
			w.Counter("abd_transport_suppressed_sends_total", "sends swallowed as loss while a peer was backing off", lb, ts.SuppressedSends)
			w.Counter("abd_transport_resets_total", "connections torn down via ResetPeer", lb, ts.Resets)
			w.Gauge("abd_transport_conns_active", "cached TCP connections", lb, float64(ts.ConnsActive))
		}
		transport(labels, ep.Stats())
		if proberEp != nil {
			plabels := obs.Labels{"node": labels["node"], "endpoint": "probe"}
			transport(plabels, proberEp.Stats())
		}

		w.Gauge("abd_node_uptime_seconds", "seconds since process start", labels, time.Since(nh.start).Seconds())

		health.WriteMetrics(w, labels, nh.status())

		// Runtime goroutine/heap/GC gauges and allocation attribution from
		// runtime/metrics on a stats-epoch cadence, plus the flight
		// recorder's ring counters when one is armed.
		nh.sampler.WriteMetrics(w, labels)
		if nh.recorder != nil {
			rs := nh.recorder.Stats()
			w.Counter("abd_prof_captures_total", "flight-recorder capture sets completed", labels, rs.Captured)
			w.Counter("abd_prof_capture_skips_total", "triggers skipped (cooldown or capture in flight)", labels, rs.Skipped)
			w.Counter("abd_prof_capture_evictions_total", "capture sets evicted from the on-disk ring", labels, rs.Evicted)
		}
	}
}
