package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	abd "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/types"
)

// system is one system under test: the replicas it runs for a group of n
// and the options its clients take. Every system runs on abd.Cluster.
type system struct {
	name     string
	replicas int
	opts     []core.ClientOption
}

// systems lists ABD and both baselines at group size n. Central is one
// server whatever n is, so crashing server 0 loses everything.
func systems(n int) []system {
	return []system{
		{"abd", n, []core.ClientOption{core.WithSingleWriter()}},
		{"central", 1, baseline.Central()},
		{"rowa", n, baseline.ROWA(n)},
	}
}

// cluster starts the system's replicas on F1's and F2's network.
func (s system) cluster(o Options) *abd.Cluster {
	return o.cluster(s.replicas, abd.WithDelays(200*time.Microsecond, 400*time.Microsecond))
}

// F1LatencyVsN sweeps the cluster size and measures read and write latency
// for ABD against both baselines. The paper's shape: ABD latency is flat in
// n (phases broadcast in parallel and wait only for a quorum), matching
// central's single round trip within a small constant, while ROWA reads are
// the cheapest and ROWA writes pay for the slowest of all n replicas.
func F1LatencyVsN(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "F1",
		Title:   "latency vs cluster size (figure: one row per point)",
		Claim:   "ABD latency is flat in n: phases run in parallel and wait only for a quorum",
		Headers: []string{"n", "system", "write mean", "read mean", "write p99", "read p99"},
	}
	ops := o.scale(100, 15)
	sizes := []int{3, 5, 7, 9, 11, 13}
	if o.Quick {
		sizes = []int{3, 5, 9}
	}

	for _, n := range sizes {
		for _, sys := range systems(n) {
			c := sys.cluster(o)
			cli := c.Client(sys.opts...)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)

			writes, err := latencies(ops, func() error { return cli.Write(ctx, "x", []byte("v")) })
			if err != nil {
				cancel()
				c.Close()
				return nil, fmt.Errorf("F1 %s n=%d write: %w", sys.name, n, err)
			}
			reads, err := latencies(ops, func() error { _, err := cli.Read(ctx, "x"); return err })
			cancel()
			c.Close()
			if err != nil {
				return nil, fmt.Errorf("F1 %s n=%d read: %w", sys.name, n, err)
			}
			tbl.AddRow(fmt.Sprintf("%d", n), sys.name,
				us(mean(writes)), us(mean(reads)),
				us(percentile(writes, 0.99)), us(percentile(reads, 0.99)))
		}
	}
	tbl.Notes = append(tbl.Notes, "central is a single server (n column does not apply); rowa reads contact one replica")
	return tbl, nil
}

// F2CrashTolerance crashes f replicas and reports which systems keep
// serving. The paper's claim: ABD is unaffected by any f < n/2; ROWA writes
// block after a single crash; the central server is gone after its one
// crash.
func F2CrashTolerance(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "F2",
		Title:   "operation availability and latency under crash failures (n=5)",
		Claim:   "ABD completes reads and writes for every f < n/2, latency unaffected; baselines degrade",
		Headers: []string{"f", "system", "writes", "reads", "write mean", "read mean", "read p50"},
	}
	ops := o.scale(60, 10)
	n := 5

	for _, f := range []int{0, 1, 2} {
		for _, sys := range systems(n) {
			c := sys.cluster(o)
			cli := c.Client(sys.opts...)
			runCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)

			// Prime a value while healthy, then crash f servers (central
			// has only the one).
			if err := cli.Write(runCtx, "x", []byte("v0")); err != nil {
				cancel()
				c.Close()
				return nil, fmt.Errorf("F2 %s prime: %w", sys.name, err)
			}
			for i := range min(f, c.Size()) {
				c.Crash(i)
			}

			writeRes, writeLat := tryOps(ops, func(octx context.Context) error {
				return cli.Write(octx, "x", []byte("v"))
			})
			readRes, readLat := tryOps(ops, func(octx context.Context) error {
				_, err := cli.Read(octx, "x")
				return err
			})
			cancel()
			c.Close()

			tbl.AddRow(fmt.Sprintf("%d", f), sys.name, writeRes, readRes,
				meanUs(writeLat), meanUs(readLat), p50Us(readLat))
		}
	}
	tbl.Notes = append(tbl.Notes,
		"ok = all ops completed within 250ms; blocked = ops timed out (liveness lost)",
		"rowa reads ask one replica, rotating around those the client found silent: the blocked writes' retransmit ticks mark the crashed ones, so with f>0 reads stay ok",
		"abd's read mean at f>0 includes the first query that targets each crashed replica: it waits one retransmit interval (100ms cold) before widening; the p50 is one round")
	return tbl, nil
}

// tryOps runs count ops with a short per-op deadline and summarizes
// liveness, returning the latencies of the successes. If the first three
// ops all time out, the system is declared blocked without burning the
// remaining deadlines.
func tryOps(count int, fn func(ctx context.Context) error) (string, []time.Duration) {
	const perOp = 250 * time.Millisecond
	okCount, attempts := 0, 0
	var okLat []time.Duration
	for i := 0; i < count; i++ {
		attempts++
		ctx, cancel := context.WithTimeout(context.Background(), perOp)
		start := time.Now()
		err := fn(ctx)
		cancel()
		if err == nil {
			okCount++
			okLat = append(okLat, time.Since(start))
		}
		if attempts == 3 && okCount == 0 {
			return "blocked", nil
		}
	}
	var status string
	switch {
	case okCount == count:
		status = "ok"
	case okCount == 0:
		status = "blocked"
	default:
		status = fmt.Sprintf("partial (%d/%d)", okCount, attempts)
	}
	return status, okLat
}

// meanUs and p50Us format a latency summary, "-" when nothing completed.
func meanUs(lat []time.Duration) string {
	if len(lat) == 0 {
		return "-"
	}
	return us(mean(lat))
}

func p50Us(lat []time.Duration) string {
	if len(lat) == 0 {
		return "-"
	}
	return us(percentile(lat, 0.5))
}

// F3Throughput drives concurrent closed-loop clients at varying read
// fractions and reports operations per second. Shape: ABD throughput rises
// with the read fraction as one-round fast-path reads take over, and
// the central server beats ABD on raw ops/s while offering no fault
// tolerance.
func F3Throughput(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "F3",
		Title:   "throughput vs read fraction (n=5, 8 closed-loop clients)",
		Claim:   "quorum replication trades throughput for availability; read-dominated mixes benefit from one-round fast-path reads",
		Headers: []string{"read %", "system", "ops/s"},
	}
	duration := 1500 * time.Millisecond
	if o.Quick {
		duration = 300 * time.Millisecond
	}
	n, clients := 5, 8

	tputSystems := []system{
		{"abd", n, nil},
		{"central", 1, baseline.Central()},
	}
	for _, readPct := range []int{0, 50, 90, 100} {
		for _, sys := range tputSystems {
			c := o.cluster(sys.replicas, abd.WithDelays(100*time.Microsecond, 200*time.Microsecond))
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)

			var total atomic.Int64
			var failed atomic.Bool
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(cli types.RW, i int) {
					defer wg.Done()
					// Deterministic per-client op mix.
					j := 0
					for {
						select {
						case <-stop:
							return
						default:
						}
						var err error
						if j%100 < readPct {
							_, err = cli.Read(ctx, "x")
						} else {
							err = cli.Write(ctx, "x", []byte("v"))
						}
						if err != nil {
							failed.Store(true)
							return
						}
						total.Add(1)
						j++
					}
				}(c.Client(sys.opts...), i)
			}
			time.Sleep(duration)
			close(stop)
			wg.Wait()
			cancel()
			c.Close()
			if failed.Load() {
				return nil, fmt.Errorf("F3 %s read%%=%d: ops failed", sys.name, readPct)
			}
			opsPerSec := float64(total.Load()) / duration.Seconds()
			tbl.AddRow(fmt.Sprintf("%d", readPct), sys.name, fmt.Sprintf("%.0f", opsPerSec))
		}
	}
	return tbl, nil
}
