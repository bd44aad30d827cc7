// Package obs is the emulation's observability layer: lock-cheap
// log-bucketed latency histograms, a pluggable span tracer with per-phase
// detail, and a Prometheus-text-format exposition endpoint.
//
// The package has no dependencies on the protocol packages, so every layer
// (core, netsim, tcpnet, the binaries) can use it without import cycles.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram buckets durations (as nanoseconds) on a logarithmic scale
// with subCount sub-buckets per power of two, HDR-style: values below
// 2*subCount land in exact unit-width buckets, larger values share a bucket
// with at most a 1/subCount ≈ 3% relative width. 1920 buckets cover the
// full int64 nanosecond range in 15 KiB of counters.
const (
	subBits    = 5
	subCount   = 1 << subBits
	numBuckets = ((64 - subBits) + 1) << subBits
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < 2*subCount {
		return int(u)
	}
	exp := uint(bits.Len64(u)) - 1 - subBits // >= 1 here
	return int(exp+1)<<subBits + int((u>>exp)&(subCount-1))
}

// bucketBounds returns the [lo, hi] nanosecond range of a bucket.
func bucketBounds(i int) (lo, hi int64) {
	if i < 2*subCount {
		return int64(i), int64(i)
	}
	exp := uint(i>>subBits) - 1
	lo = int64(subCount+uint64(i&(subCount-1))) << exp
	return lo, lo + (1 << exp) - 1
}

// bucketMid returns a bucket's representative value (its midpoint).
func bucketMid(i int) int64 {
	lo, hi := bucketBounds(i)
	return lo + (hi-lo)/2
}

// Histogram is a concurrency-safe log-bucketed latency histogram. Record is
// three atomic adds (plus one CAS loop for the max) with no locking, so it
// is cheap enough to leave on in hot paths. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Record adds one observation. Negative durations are clamped to zero.
func (h *Histogram) Record(d time.Duration) {
	v := d.Nanoseconds()
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns the p-quantile (0 <= p <= 1) of the recorded
// observations; see HistSnapshot.Quantile for accuracy.
func (h *Histogram) Quantile(p float64) time.Duration {
	return h.Snapshot().Quantile(p)
}

// Snapshot copies the histogram's state. Concurrent Records that race the
// snapshot may be partially included; each counter is individually exact.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Max:     h.max.Load(),
		Buckets: make([]int64, numBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram. Snapshots from
// different histograms (e.g. one per client) merge associatively and
// commutatively, so fleet-wide quantiles are exact up to bucket width.
type HistSnapshot struct {
	Count   int64
	Sum     int64 // nanoseconds
	Max     int64 // nanoseconds
	Buckets []int64
}

// Merge returns the element-wise sum of two snapshots. Either side may be
// the zero snapshot.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count:   s.Count + o.Count,
		Sum:     s.Sum + o.Sum,
		Max:     s.Max,
		Buckets: make([]int64, numBuckets),
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	copy(out.Buckets, s.Buckets)
	for i, v := range o.Buckets {
		out.Buckets[i] += v
	}
	return out
}

// Quantile returns the p-quantile (0 <= p <= 1), defined like a rank in the
// sorted sample list: p=0 is the minimum, p=1 the maximum. The result is
// the containing bucket's midpoint, so the relative error is bounded by
// half the bucket width (≈ 1.6%); values under 64ns are exact.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// 0-based rank, same convention as sorted[int(p*(n-1))].
	rank := int64(p * float64(s.Count-1))
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum > rank {
			return time.Duration(bucketMid(i))
		}
	}
	return time.Duration(s.Max)
}

// MaxValue returns the largest observation.
func (s HistSnapshot) MaxValue() time.Duration { return time.Duration(s.Max) }

// CumulativeLE returns how many observations fell into buckets wholly at or
// below le nanoseconds — the count behind a Prometheus `le` bucket. It is
// monotone in le; a bucket straddling le is excluded, so the count may
// undershoot by at most one bucket's width of observations.
func (s HistSnapshot) CumulativeLE(le int64) int64 {
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if _, hi := bucketBounds(i); hi <= le {
			cum += c
		}
	}
	return cum
}
