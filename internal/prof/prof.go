// Package prof is the performance-observability layer: where the rest of
// internal/obs answers "how fast", prof answers "at what cost". It has
// two parts, both stdlib-only:
//
//   - Sampler reads a fixed set of runtime/metrics series (heap allocation
//     totals, GC cycles and pause distribution, GC assist CPU, scheduler
//     latency) and exposes them both cumulatively and as per-epoch deltas,
//     following the same stats-epoch convention internal/netsim uses for
//     its message counters: a rotation closes the current epoch and the
//     closed window is what quantile gauges are computed over. WriteMetrics
//     emits the abd_prof_* series next to the abd_client_*/abd_replica_*
//     families (README, Performance observability).
//
//   - Recorder is an anomaly-triggered flight recorder: Trigger captures
//     CPU/heap/goroutine profiles into a bounded on-disk ring of capture
//     directories (oldest evicted), so when a health SLO burn alert fires,
//     the profile from *inside* the fault window is already on disk when a
//     human shows up. cmd/abd-node wires
//     it behind -prof-dir; internal/nemesis triggers it from the harness's
//     health monitor.
//
// Captured profiles are standard pprof files: read and diff them with
// `go tool pprof` (README, Performance observability).
//
// MeasureAllocs is the per-op attribution primitive behind the repository
// benchmark's layer probes (bench/probes.go: the *_allocs metrics).
package prof
