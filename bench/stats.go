package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency stands in for the latency of an operation that failed, was
// shed or never completed: it misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted:
// the smallest sample with at least p of the samples at or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// slicedPercentile cuts a phase of length dur into n equal slices by due
// time, takes the p-quantile of each slice's latencies, and returns the
// pick-quantile of those n values (0.5 = the median slice, 0.1 = one of the
// quietest). A slice nothing was due in is left out.
//
// The sandbox this benchmark was calibrated on does not hold still: its
// hypervisor parks a processor for 10–40 ms every few seconds, and for
// minutes at a time the whole machine runs at half speed (a fixed hashing
// loop takes 170 ms or 420 ms depending on when it is started). A quantile
// over the whole window is set by how much of that fell inside the window.
// A stall lands in one slice and a slow stretch in some of them; the
// quieter slices still show what the program costs.
func slicedPercentile(ops []timed, dur time.Duration, n int, p, pick float64) time.Duration {
	if n < 1 {
		n = 1
	}
	slices := make([][]time.Duration, n)
	for _, op := range ops {
		i := int(int64(op.Due) * int64(n) / int64(dur))
		if i >= n {
			i = n - 1
		}
		slices[i] = append(slices[i], op.Lat)
	}
	var qs []time.Duration
	for _, sl := range slices {
		if len(sl) > 0 {
			qs = append(qs, percentile(sortDurations(sl), p))
		}
	}
	if len(qs) == 0 {
		return 0
	}
	sortDurations(qs)
	return qs[int(float64(len(qs)-1)*pick)]
}

// quietPercentile is the steady window's latency statistic: the p-quantile
// of each one-second slice, and of those the value a tenth of the way up —
// with 25 slices, the third quietest second.
func quietPercentile(ops []timed, dur time.Duration, p float64) time.Duration {
	return slicedPercentile(ops, dur, int(dur/sliceLen), p, quietPick)
}

// wholePercentile is the plain p-quantile over every operation of a phase.
func wholePercentile(ops []timed, p float64) time.Duration {
	lats := make([]time.Duration, len(ops))
	for i, op := range ops {
		lats[i] = op.Lat
	}
	return percentile(sortDurations(lats), p)
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rungStats is what the ladder needs to know about one rung.
type rungStats struct {
	Arrivals int
	Failed   int           // errored, timed out or shed
	Backlog  int           // arrivals of the rung still incomplete when it ended
	P99      time.Duration // failed and incomplete operations count as failedLatency
}

// passes is the ladder's verdict: p99 within the limit, nothing failed,
// and a backlog at the rung's end of at most 1% of its arrivals.
func (r rungStats) passes() bool {
	return r.Arrivals > 0 && r.Failed == 0 && r.P99 <= latencyLimit &&
		float64(r.Backlog) <= 0.01*float64(r.Arrivals)
}

// passedRungs counts the rungs that passed before the first that did not.
// The ladder stops at its first failing rung, so max_rate_ops_s is the rate
// of rung passedRungs-1.
func passedRungs(rungs []rungStats) int {
	n := 0
	for n < len(rungs) && rungs[n].passes() {
		n++
	}
	return n
}

func ladderRate(ref float64, k int) float64 { return ref * math.Pow(ladderStep, float64(k)) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver uses to judge spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relIQR is the interquartile range as a share of the median.
func relIQR(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
