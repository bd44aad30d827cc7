package abd

// One testing.B benchmark per evaluation table/figure (DESIGN.md §3). Each
// bench exercises the experiment's inner loop; the full sweeps with
// paper-vs-measured comparison live in abd-sim -exp (and EXPERIMENTS.md).
// Custom metrics (msgs/op, phases/op) are reported alongside ns/op.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bakery"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/quorum"
	"repro/internal/snapshot"
)

func benchCluster(b *testing.B, n int, opts ...Option) *Cluster {
	b.Helper()
	cluster, err := NewCluster(n, append([]Option{WithSeed(1)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Close)
	return cluster
}

func benchCtx(b *testing.B) context.Context {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	b.Cleanup(cancel)
	return ctx
}

// BenchmarkT1MessageComplexity measures messages per operation (expected:
// SWMR write 2n, read 4n with write-back).
func BenchmarkT1MessageComplexity(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("swmr-write/n=%d", n), func(b *testing.B) {
			cluster := benchCluster(b, n)
			w := cluster.Client(WithSingleWriter())
			ctx := benchCtx(b)
			cluster.ResetNetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Write(ctx, "x", []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			time.Sleep(10 * time.Millisecond) // drain acks
			b.ReportMetric(float64(cluster.NetStats().Sent)/float64(b.N), "msgs/op")
		})
		b.Run(fmt.Sprintf("read/n=%d", n), func(b *testing.B) {
			cluster := benchCluster(b, n)
			cli := cluster.Client()
			ctx := benchCtx(b)
			if err := cli.Write(ctx, "x", []byte("v")); err != nil {
				b.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
			cluster.ResetNetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Read(ctx, "x"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			time.Sleep(10 * time.Millisecond)
			b.ReportMetric(float64(cluster.NetStats().Sent)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkT2Rounds measures operation latency under a fixed network delay
// (expected: two-phase read ≈ 2× SWMR write, fast-path read ≈ 1×).
func BenchmarkT2Rounds(b *testing.B) {
	const oneWay = 200 * time.Microsecond
	variants := []struct {
		name   string
		isRead bool
		opts   []core.ClientOption
	}{
		{"swmr-write", false, []core.ClientOption{core.WithSingleWriter()}},
		{"read", true, []core.ClientOption{core.WithReadMode(core.ReadTwoPhase)}},
		{"mwmr-write", false, nil},
		{"read-fast", true, nil},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cluster := benchCluster(b, 5, WithDelays(oneWay, oneWay))
			cli := cluster.Client(v.opts...)
			ctx := benchCtx(b)
			if err := cli.Write(ctx, "x", []byte("v")); err != nil {
				b.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if v.isRead {
					_, err = cli.Read(ctx, "x")
				} else {
					err = cli.Write(ctx, "x", []byte("v"))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF1LatencyVsN sweeps cluster size (expected: flat in n).
func BenchmarkF1LatencyVsN(b *testing.B) {
	for _, n := range []int{3, 5, 7, 9, 13} {
		b.Run(fmt.Sprintf("write/n=%d", n), func(b *testing.B) {
			cluster := benchCluster(b, n, WithDelays(100*time.Microsecond, 300*time.Microsecond))
			w := cluster.Client(WithSingleWriter())
			ctx := benchCtx(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Write(ctx, "x", []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF2CrashTolerance runs with f crashed replicas (expected: latency
// unaffected for f < n/2).
func BenchmarkF2CrashTolerance(b *testing.B) {
	for _, f := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("write/n=5/f=%d", f), func(b *testing.B) {
			cluster := benchCluster(b, 5, WithDelays(100*time.Microsecond, 300*time.Microsecond))
			w := cluster.Client(WithSingleWriter())
			ctx := benchCtx(b)
			if err := w.Write(ctx, "x", []byte("v")); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < f; i++ {
				cluster.Crash(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Write(ctx, "x", []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF3Throughput drives parallel clients at a 90% read mix.
func BenchmarkF3Throughput(b *testing.B) {
	cluster := benchCluster(b, 5, WithDelays(50*time.Microsecond, 150*time.Microsecond))
	ctx := benchCtx(b)
	seedCli := cluster.Client()
	if err := seedCli.Write(ctx, "x", []byte("v")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cli := cluster.Client()
		j := 0
		for pb.Next() {
			var err error
			if j%10 != 0 {
				_, err = cli.Read(ctx, "x")
			} else {
				err = cli.Write(ctx, "x", []byte("v"))
			}
			if err != nil {
				b.Fatal(err)
			}
			j++
		}
	})
}

// BenchmarkT3Linearizability benches the checker itself on a freshly
// recorded 75-op concurrent history.
func BenchmarkT3Linearizability(b *testing.B) {
	cluster := benchCluster(b, 3, WithDelays(0, time.Millisecond))
	ctx := benchCtx(b)
	rec := history.NewRecorder()
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		go func(id int) {
			defer func() { done <- struct{}{} }()
			cli := cluster.Client()
			for j := 0; j < 25; j++ {
				if j%2 == 0 {
					val := []byte(fmt.Sprintf("w%d-%d", id, j))
					p := rec.BeginWrite(id, val)
					if err := cli.Write(ctx, "x", val); err != nil {
						p.Crash()
						return
					}
					p.EndWrite()
				} else {
					p := rec.BeginRead(id)
					v, err := cli.Read(ctx, "x")
					if err != nil {
						p.Crash()
						return
					}
					p.EndRead(v)
				}
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
	ops := rec.Ops()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := lincheck.CheckRegister(ops, lincheck.Config{Timeout: time.Minute})
		if res.Outcome != lincheck.Linearizable {
			b.Fatalf("history not linearizable: %v", res.Outcome)
		}
	}
}

// BenchmarkF4PartitionBoundary benches operations from the majority side of
// a partition (the minority side blocks by design, so there is nothing to
// measure there).
func BenchmarkF4PartitionBoundary(b *testing.B) {
	cluster := benchCluster(b, 5)
	w := cluster.Client(WithSingleWriter())
	ctx := benchCtx(b)
	if err := w.Write(ctx, "x", []byte("v")); err != nil {
		b.Fatal(err)
	}
	ids := cluster.ReplicaIDs()
	cluster.Partition(
		[]NodeID{ids[0], ids[1], ids[2], w.ID()},
		[]NodeID{ids[3], ids[4]},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(ctx, "x", []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF5QuorumAvailability benches the Monte Carlo availability
// analysis for a 5x5 grid.
func BenchmarkF5QuorumAvailability(b *testing.B) {
	g := quorum.NewGrid(5, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = quorum.Availability(g, 0.2, 1000, int64(i+1))
	}
}

// BenchmarkT4BoundedLabels compares write cost in bounded vs unbounded
// timestamp modes.
func BenchmarkT4BoundedLabels(b *testing.B) {
	b.Run("unbounded", func(b *testing.B) {
		cluster := benchCluster(b, 3)
		w := cluster.Client(WithSingleWriter())
		ctx := benchCtx(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(ctx, "x", []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bounded", func(b *testing.B) {
		cluster := benchCluster(b, 3, WithClientDefaults(core.WithBoundedLabels(16)))
		w := cluster.Client()
		ctx := benchCtx(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(ctx, "x", []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT5MultiWriter measures the multi-writer write (expected: ~2× the
// single-writer cost under the same delays).
func BenchmarkT5MultiWriter(b *testing.B) {
	for _, mode := range []string{"single-writer", "multi-writer"} {
		b.Run(mode, func(b *testing.B) {
			cluster := benchCluster(b, 5, WithDelays(100*time.Microsecond, 200*time.Microsecond))
			var cli *Client
			if mode == "single-writer" {
				cli = cluster.Client(WithSingleWriter())
			} else {
				cli = cluster.Client()
			}
			ctx := benchCtx(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cli.Write(ctx, "x", []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF6Applications benches the ported shared-memory algorithms.
func BenchmarkF6Applications(b *testing.B) {
	b.Run("snapshot-scan/components=4", func(b *testing.B) {
		cluster := benchCluster(b, 3)
		ctx := benchCtx(b)
		regs := make([]snapshot.Register, 4)
		for i := range regs {
			regs[i] = cluster.Client(WithSingleWriter()).Register(fmt.Sprintf("snap/%d", i))
		}
		h, err := snapshot.New(regs, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Update(ctx, []byte("v")); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.Scan(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot-update/components=4", func(b *testing.B) {
		cluster := benchCluster(b, 3)
		ctx := benchCtx(b)
		regs := make([]snapshot.Register, 4)
		for i := range regs {
			regs[i] = cluster.Client(WithSingleWriter()).Register(fmt.Sprintf("snap/%d", i))
		}
		h, err := snapshot.New(regs, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.Update(ctx, []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bakery-lock-unlock/uncontended", func(b *testing.B) {
		cluster := benchCluster(b, 3)
		ctx := benchCtx(b)
		w := cluster.Client(WithSingleWriter())
		choosing := []bakery.Register{w.Register("choosing/0")}
		number := []bakery.Register{w.Register("number/0")}
		m, err := bakery.New(choosing, number, 0, bakery.WithPollInterval(100*time.Microsecond))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Lock(ctx); err != nil {
				b.Fatal(err)
			}
			if err := m.Unlock(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
