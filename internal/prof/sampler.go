package prof

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
)

// The runtime/metrics series the sampler reads. Histogram-valued pause
// metrics moved under /sched/pauses in newer runtimes; the sampler resolves
// whichever spelling this runtime supports and silently drops series it
// does not have, so the package keeps building against older toolchains.
const (
	keyAllocBytes   = "/gc/heap/allocs:bytes"
	keyAllocObjects = "/gc/heap/allocs:objects"
	keyGCCycles     = "/gc/cycles/total:gc-cycles"
	keyGCAssist     = "/cpu/classes/gc/mark/assist:cpu-seconds"
	keyGoroutines   = "/sched/goroutines:goroutines"
	keyHeapObjects  = "/memory/classes/heap/objects:bytes"
	keyGCPauses     = "/sched/pauses/total/gc:seconds"
	keyGCPausesOld  = "/gc/pauses:seconds"
	keySchedLat     = "/sched/latencies:seconds"
)

// DefaultEpoch is the sampler's default rotation cadence. The DESIGN.md
// invariant (asserted by TestSamplingOverheadInvariant) is that one sample
// per epoch costs under 1% of a core; at this cadence the measured duty
// cycle is orders of magnitude below that.
const DefaultEpoch = 15 * time.Second

// supportedKeys resolves the series this runtime actually exports, once.
var supportedKeys = func() map[string]bool {
	out := make(map[string]bool)
	for _, d := range metrics.All() {
		out[d.Name] = true
	}
	return out
}()

// Dist is a snapshot of one runtime float64 histogram (GC pauses,
// scheduler latencies). Counts[i] falls in [Buckets[i], Buckets[i+1]); the
// edge buckets may be ±Inf. Runtime histograms are cumulative over the
// process lifetime, so per-epoch views are built with Sub.
type Dist struct {
	Counts  []uint64
	Buckets []float64
}

// Count returns the total number of observations.
func (d Dist) Count() uint64 {
	var n uint64
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// Sub returns the distribution of observations in d but not in base
// (same bucket layout required; mismatched layouts return d unchanged).
func (d Dist) Sub(base Dist) Dist {
	if len(d.Counts) != len(base.Counts) {
		return d
	}
	out := Dist{Counts: make([]uint64, len(d.Counts)), Buckets: d.Buckets}
	for i, c := range d.Counts {
		if b := base.Counts[i]; c > b {
			out.Counts[i] = c - b
		}
	}
	return out
}

// Quantile returns an upper bound for the p-quantile (0 < p <= 1): the
// upper edge of the bucket where the cumulative count crosses p. Returns 0
// for an empty distribution; an unbounded top bucket reports its lower
// edge instead (the runtime's overflow bucket).
func (d Dist) Quantile(p float64) float64 {
	total := d.Count()
	if total == 0 {
		return 0
	}
	target := uint64(p * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range d.Counts {
		cum += c
		if cum >= target && c > 0 {
			return d.upperEdge(i)
		}
	}
	return d.upperEdge(len(d.Counts) - 1)
}

// Max returns the upper edge of the highest non-empty bucket, 0 if empty.
func (d Dist) Max() float64 {
	for i := len(d.Counts) - 1; i >= 0; i-- {
		if d.Counts[i] > 0 {
			return d.upperEdge(i)
		}
	}
	return 0
}

func (d Dist) upperEdge(i int) float64 {
	if i+1 < len(d.Buckets) {
		if hi := d.Buckets[i+1]; !math.IsInf(hi, 1) {
			return hi
		}
	}
	if i < len(d.Buckets) {
		return d.Buckets[i]
	}
	return 0
}

// Snapshot is one cumulative reading of the sampled series.
type Snapshot struct {
	At time.Time
	// Cumulative counters since process start.
	AllocBytes      uint64
	AllocObjects    uint64
	GCCycles        uint64
	GCAssistSeconds float64
	// Instantaneous gauges.
	Goroutines       uint64
	HeapObjectsBytes uint64
	// Cumulative distributions since process start.
	GCPauses       Dist
	SchedLatencies Dist
}

// Delta is the view of one closed stats epoch: counters and distributions
// scoped to the window between two snapshots.
type Delta struct {
	Dur             time.Duration
	AllocBytes      uint64
	AllocObjects    uint64
	GCCycles        uint64
	GCAssistSeconds float64
	GCPauses        Dist
	SchedLatencies  Dist
}

// Sub returns the epoch delta from base to s.
func (s Snapshot) Sub(base Snapshot) Delta {
	return Delta{
		Dur:             s.At.Sub(base.At),
		AllocBytes:      s.AllocBytes - base.AllocBytes,
		AllocObjects:    s.AllocObjects - base.AllocObjects,
		GCCycles:        s.GCCycles - base.GCCycles,
		GCAssistSeconds: s.GCAssistSeconds - base.GCAssistSeconds,
		GCPauses:        s.GCPauses.Sub(base.GCPauses),
		SchedLatencies:  s.SchedLatencies.Sub(base.SchedLatencies),
	}
}

// Sampler reads the fixed runtime/metrics set and keeps stats-epoch state:
// a baseline snapshot for the open epoch and the delta of the last closed
// one. All methods are safe for concurrent use.
type Sampler struct {
	epoch time.Duration // auto-rotation period; 0 = manual rotation only

	mu      sync.Mutex
	samples []metrics.Sample // reused read buffer
	base    Snapshot         // open epoch's baseline
	last    Delta            // last closed epoch
}

// NewSampler creates a sampler and takes the initial baseline. epoch > 0
// makes Current auto-rotate once that much time has passed since the last
// rotation; pass 0 to rotate manually (Rotate).
func NewSampler(epoch time.Duration) *Sampler {
	s := &Sampler{epoch: epoch}
	keys := []string{
		keyAllocBytes, keyAllocObjects, keyGCCycles, keyGCAssist,
		keyGoroutines, keyHeapObjects, keySchedLat,
	}
	if supportedKeys[keyGCPauses] {
		keys = append(keys, keyGCPauses)
	} else if supportedKeys[keyGCPausesOld] {
		keys = append(keys, keyGCPausesOld)
	}
	for _, k := range keys {
		if supportedKeys[k] {
			s.samples = append(s.samples, metrics.Sample{Name: k})
		}
	}
	s.mu.Lock()
	s.base = s.readLocked()
	s.mu.Unlock()
	return s
}

// Read returns a fresh cumulative snapshot without touching epoch state.
func (s *Sampler) Read() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readLocked()
}

func (s *Sampler) readLocked() Snapshot {
	metrics.Read(s.samples)
	snap := Snapshot{At: time.Now()}
	for _, sm := range s.samples {
		switch sm.Name {
		case keyAllocBytes:
			snap.AllocBytes = sm.Value.Uint64()
		case keyAllocObjects:
			snap.AllocObjects = sm.Value.Uint64()
		case keyGCCycles:
			snap.GCCycles = sm.Value.Uint64()
		case keyGCAssist:
			snap.GCAssistSeconds = sm.Value.Float64()
		case keyGoroutines:
			snap.Goroutines = sm.Value.Uint64()
		case keyHeapObjects:
			snap.HeapObjectsBytes = sm.Value.Uint64()
		case keyGCPauses, keyGCPausesOld:
			snap.GCPauses = distFrom(sm.Value)
		case keySchedLat:
			snap.SchedLatencies = distFrom(sm.Value)
		}
	}
	return snap
}

func distFrom(v metrics.Value) Dist {
	if v.Kind() != metrics.KindFloat64Histogram {
		return Dist{}
	}
	h := v.Float64Histogram()
	return Dist{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// Rotate closes the open epoch: it returns (and stores) the delta since the
// last rotation and rebaselines. This is the stats-epoch reset, the analogue
// of netsim's ResetStats.
func (s *Sampler) Rotate() Delta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotateLocked()
}

func (s *Sampler) rotateLocked() Delta {
	now := s.readLocked()
	s.last = now.Sub(s.base)
	s.base = now
	return s.last
}

// Current returns the cumulative snapshot plus the last closed epoch's
// delta. With a non-zero epoch period it first rotates if the open epoch
// has run past the period, so concurrent scrapers all observe the same
// closed window between rotations.
func (s *Sampler) Current() (Snapshot, Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.readLocked()
	if s.epoch > 0 && now.At.Sub(s.base.At) >= s.epoch {
		s.last = now.Sub(s.base)
		s.base = now
	}
	return now, s.last
}

// WriteMetrics emits the abd_prof_* series (README, Performance
// observability): cumulative allocation/GC counters plus quantile gauges
// computed over the last closed stats epoch.
func (s *Sampler) WriteMetrics(w *obs.Writer, labels obs.Labels) {
	snap, d := s.Current()
	w.Counter("abd_prof_alloc_bytes_total", "heap bytes allocated since process start", labels, int64(snap.AllocBytes))
	w.Counter("abd_prof_alloc_objects_total", "heap objects allocated since process start", labels, int64(snap.AllocObjects))
	w.Counter("abd_prof_gc_cycles_total", "completed GC cycles", labels, int64(snap.GCCycles))
	w.Counter("abd_prof_gc_pauses_total", "stop-the-world GC pauses", labels, int64(snap.GCPauses.Count()))
	w.Gauge("abd_prof_gc_assist_cpu_seconds", "cumulative CPU seconds user goroutines spent assisting the GC mark phase", labels, snap.GCAssistSeconds)
	w.Gauge("abd_prof_goroutines", "live goroutines (runtime/metrics view)", labels, float64(snap.Goroutines))
	w.Gauge("abd_prof_heap_objects_bytes", "bytes occupied by live + unswept heap objects", labels, float64(snap.HeapObjectsBytes))
	w.Gauge("abd_prof_epoch_seconds", "length of the last closed stats epoch the quantile gauges cover", labels, d.Dur.Seconds())
	w.Gauge("abd_prof_epoch_alloc_bytes_per_second", "heap allocation rate over the last closed epoch", labels, rate(float64(d.AllocBytes), d.Dur))
	w.Gauge("abd_prof_gc_pause_p50_seconds", "median GC pause over the last closed epoch", labels, d.GCPauses.Quantile(0.50))
	w.Gauge("abd_prof_gc_pause_p99_seconds", "p99 GC pause over the last closed epoch", labels, d.GCPauses.Quantile(0.99))
	w.Gauge("abd_prof_gc_pause_max_seconds", "max GC pause over the last closed epoch", labels, d.GCPauses.Max())
	w.Gauge("abd_prof_sched_latency_p50_seconds", "median goroutine scheduling latency over the last closed epoch", labels, d.SchedLatencies.Quantile(0.50))
	w.Gauge("abd_prof_sched_latency_p99_seconds", "p99 goroutine scheduling latency over the last closed epoch", labels, d.SchedLatencies.Quantile(0.99))
	w.Gauge("abd_prof_sched_latency_max_seconds", "max goroutine scheduling latency over the last closed epoch", labels, d.SchedLatencies.Max())
}

func rate(v float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return v / d.Seconds()
}

// AllocStats is MeasureAllocs's result: the mean heap allocation cost of
// one operation.
type AllocStats struct {
	Ops         int
	AllocsPerOp float64
	BytesPerOp  float64
}

// MeasureAllocs runs f(0..n-1) on the calling goroutine and attributes the
// process's heap allocation delta across the n operations. The measurement
// is process-wide (runtime.MemStats Mallocs/TotalAlloc), so background
// goroutines the operations cause — replica handlers, transport loops —
// are deliberately included: this is the whole-system cost of an op, the
// number ROADMAP's zero-allocation work has to drive down. A GC runs first
// so sweep debt from earlier phases is not billed to this one.
func MeasureAllocs(n int, f func(i int)) AllocStats {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	if n <= 0 {
		return AllocStats{}
	}
	return AllocStats{
		Ops:         n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}
}
