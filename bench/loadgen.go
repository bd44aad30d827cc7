package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opStatus is how one arrival ended.
type opStatus uint8

const (
	stPending opStatus = iota // dispatched (or not yet), no result recorded
	stOK
	stFailed // the operation returned an error, its 2 s timeout included
	stShed   // arrived with maxInFlight operations already in flight
	stBad    // a read returned a value no write put there
)

// opResult is what the generator records per arrival. Lat runs from the
// arrival's due time to its completion; Lag is how late it was dispatched.
//
// status is atomic because the ladder judges a rung while later operations
// are still completing: a reader that loads a status other than stPending
// also sees the Lat stored before it.
type opResult struct {
	Lat    time.Duration
	Lag    time.Duration
	status atomic.Uint32
}

func (r *opResult) Status() opStatus { return opStatus(r.status.Load()) }

// opFunc performs one arrival (index i of the schedule) and reports whether
// a read's value was legal. The real one drives core.Client; tests stub it.
type opFunc func(ctx context.Context, i int, a arrival) (bad bool, err error)

// generator dispatches a schedule open-loop: each arrival is sent at its due
// time whether or not earlier ones have completed, every operation runs on
// its own goroutine, and nothing the system does can delay a later arrival
// — except the in-flight cap, which sheds rather than waits.
type generator struct {
	sched *schedule
	do    opFunc
	// event handles evKill and evRestart; it must not block the dispatcher.
	event func(kind opKind)

	results     []opResult
	started     []time.Time // per phase: the instant its clock began (zero = not run)
	inFlight    atomic.Int64
	inFlightMax atomic.Int64
	wg          sync.WaitGroup
}

func newGenerator(s *schedule, do opFunc) *generator {
	return &generator{
		sched:   s,
		do:      do,
		event:   func(opKind) {},
		results: make([]opResult, len(s.Arrivals)),
		started: make([]time.Time, len(s.Phases)),
	}
}

// runPhase dispatches phase p and returns when its last arrival has been
// sent and the phase's nominal duration has elapsed; operations may still be
// in flight (wait collects them). stop, polled before each arrival, ends
// the phase early: the arrivals not yet sent are left stPending with
// nothing dispatched.
func (g *generator) runPhase(p int, stop func() bool) {
	// The dispatcher owns an OS thread and sleeps in nanosleep(2): a Go
	// timer on an otherwise idle runtime wakes through epoll's millisecond
	// granularity, which on this box is ~0.8 ms late; nanosleep is ~0.1 ms.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph := g.sched.Phases[p]
	t0 := time.Now()
	g.started[p] = t0
	for i := ph.First; i < ph.End; i++ {
		a := g.sched.Arrivals[i]
		due := t0.Add(a.Due)
		sleepUntil(due)
		if stop != nil && stop() {
			return
		}
		g.results[i].Lag = time.Since(due)
		if a.Kind == evKill || a.Kind == evRestart {
			g.event(a.Kind)
			continue
		}
		n := g.inFlight.Add(1)
		if n > maxInFlight {
			g.inFlight.Add(-1)
			g.results[i].status.Store(uint32(stShed))
			continue
		}
		for {
			m := g.inFlightMax.Load()
			if n <= m || g.inFlightMax.CompareAndSwap(m, n) {
				break
			}
		}
		g.wg.Add(1)
		go g.exec(i, a, due)
	}
	if stop == nil || !stop() {
		sleepUntil(t0.Add(ph.Dur))
	}
}

// sleepUntil blocks the calling thread until t. A signal (the runtime
// preempts with them) can end nanosleep early, hence the loop.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return is handled by the loop
	}
}

func (g *generator) exec(i int, a arrival, due time.Time) {
	defer g.wg.Done()
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(opTimeout))
	bad, err := g.do(ctx, i, a)
	cancel()
	r := &g.results[i]
	r.Lat = time.Since(due)
	switch {
	case err != nil:
		r.status.Store(uint32(stFailed))
	case bad:
		r.status.Store(uint32(stBad))
	default:
		r.status.Store(uint32(stOK))
	}
	g.inFlight.Add(-1)
}

// wait blocks until every dispatched operation has completed. Operations
// time out after opTimeout, so this is bounded.
func (g *generator) wait() { g.wg.Wait() }

// timed is one operation's latency with the offset, within its phase, at
// which it was due.
type timed struct {
	Due, Lat time.Duration
}

// phaseSamples is a completed phase's operations: read and write latencies
// (failed, shed and bad ones as failedLatency), generator lag, and counts.
type phaseSamples struct {
	Dur               time.Duration
	Reads, Writes     []timed // in schedule order
	Lags              []timed // dispatch time minus due time, in schedule order
	Attempted, Failed int
	Completed         int
}

func (g *generator) samples(p int) phaseSamples {
	ph := g.sched.Phases[p]
	s := phaseSamples{Dur: ph.Dur}
	for i := ph.First; i < ph.End; i++ {
		a, r := g.sched.Arrivals[i], &g.results[i]
		if a.Kind != opRead && a.Kind != opWrite {
			continue
		}
		st := r.Status()
		if st == stPending {
			continue // never dispatched: the phase was stopped early
		}
		s.Attempted++
		s.Lags = append(s.Lags, timed{a.Due, r.Lag})
		lat := r.Lat
		if st != stOK {
			s.Failed++
			lat = failedLatency
		} else {
			s.Completed++
		}
		if a.Kind == opRead {
			s.Reads = append(s.Reads, timed{a.Due, lat})
		} else {
			s.Writes = append(s.Writes, timed{a.Due, lat})
		}
	}
	return s
}

// rung evaluates phase p as a ladder rung. It may be called while later
// phases are running, so it reads results without waiting: an operation
// still pending counts as incomplete and as missing the latency limit.
func (g *generator) rung(p int) rungStats {
	ph := g.sched.Phases[p]
	end := g.started[p].Add(ph.Dur)
	var rs rungStats
	lats := make([]timed, 0, ph.End-ph.First)
	for i := ph.First; i < ph.End; i++ {
		a := g.sched.Arrivals[i]
		if a.Kind != opRead && a.Kind != opWrite {
			continue
		}
		r := &g.results[i]
		rs.Arrivals++
		switch r.Status() {
		case stOK:
			lats = append(lats, timed{a.Due, r.Lat})
			if g.started[p].Add(a.Due + r.Lat).After(end) {
				rs.Backlog++
			}
		case stPending:
			lats = append(lats, timed{a.Due, failedLatency})
			rs.Backlog++
		default:
			lats = append(lats, timed{a.Due, failedLatency})
			rs.Failed++
		}
	}
	rs.P99 = slicedPercentile(lats, ph.Dur, rungSlices, 0.99, 0.5)
	return rs
}
