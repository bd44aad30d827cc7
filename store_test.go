package abd

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/lincheck"
)

// TestStoreShardedLinearizablePerRegister is the sharded store's headline
// guarantee at the public API: a concurrent mixed workload through several
// independent Stores of a 3-group cluster yields a history that is
// linearizable register by register — the granularity at which the ABD
// emulation (and therefore the sharded composition of it) promises
// atomicity.
func TestStoreShardedLinearizablePerRegister(t *testing.T) {
	const (
		groups   = 3
		perGroup = 3
		stores   = 4
		opsEach  = 25
	)
	cluster, err := NewCluster(groups*perGroup, WithShards(groups), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	sts := make([]*Store, stores)
	for i := range sts {
		sts[i] = cluster.Store()
	}

	// One register per group index r%groups, probed on the shared ring so the
	// workload provably touches every group (random names can all land on a
	// subset; the probe removes the luck).
	regs := make([]string, 2*groups)
	for r := range regs {
		regs[r] = fmt.Sprintf("k%d", r)
		for k := 0; sts[0].Shard(regs[r]) != r%groups; k++ {
			regs[r] = fmt.Sprintf("k%d-%d", r, k)
		}
	}
	for _, reg := range regs {
		for _, st := range sts {
			if st.Shard(reg) != sts[0].Shard(reg) {
				t.Fatalf("stores disagree on owner of %q: %d vs %d", reg, st.Shard(reg), sts[0].Shard(reg))
			}
		}
	}

	// Mixed workload: half the stores write, half read, all concurrently,
	// every worker rotating over all registers so each register sees
	// contention from multiple groups' clients.
	rec := history.NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < stores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := sts[w]
			for j := 0; j < opsEach; j++ {
				reg := regs[(w+j)%len(regs)]
				octx, ocancel := context.WithTimeout(ctx, 5*time.Second)
				if w%2 == 0 {
					val := []byte(fmt.Sprintf("w%d-%d", w, j))
					p := rec.BeginWriteReg(w, reg, val)
					if err := st.Write(octx, reg, val); err != nil {
						p.Crash()
					} else {
						p.EndWrite()
					}
				} else {
					p := rec.BeginReadReg(w, reg)
					if v, err := st.Read(octx, reg); err != nil {
						p.Crash()
					} else {
						p.EndRead(v)
					}
				}
				ocancel()
			}
		}(w)
	}
	wg.Wait()

	ops := rec.Ops()
	if len(ops) != stores*opsEach {
		t.Fatalf("recorded %d ops, want %d", len(ops), stores*opsEach)
	}
	results := lincheck.CheckRegisters(ops, lincheck.Config{Timeout: time.Minute})
	if len(results) != len(regs) {
		t.Fatalf("verdicts for %d registers, want %d", len(results), len(regs))
	}
	groupsSeen := make(map[int]bool)
	for reg, res := range results {
		if res.Outcome == lincheck.NotLinearizable {
			t.Errorf("register %q (group %d) NOT linearizable", reg, sts[0].Shard(reg))
		}
		groupsSeen[sts[0].Shard(reg)] = true
	}
	if len(groupsSeen) != groups {
		t.Fatalf("workload touched %d groups, want %d", len(groupsSeen), groups)
	}

	// The cross-cutting layers merge across shards: every completed
	// operation shows up in the cluster-wide counters and histograms.
	m := cluster.Metrics()
	if m.Reads+m.Writes < int64(len(ops)) {
		t.Fatalf("merged metrics count %d ops, want >= %d", m.Reads+m.Writes, len(ops))
	}
	lat := cluster.Latency()
	if lat.Read.Count == 0 || lat.Write.Count == 0 {
		t.Fatalf("merged latency histograms empty: reads=%d writes=%d", lat.Read.Count, lat.Write.Count)
	}
}

// TestStoreOptionReexports pins the root's one shard option: WithShards
// splits NewCluster's replicas into equal groups behind every Store.
func TestStoreOptionReexports(t *testing.T) {
	ctx := testCtx(t)

	t.Run("WithShards", func(t *testing.T) {
		cluster, err := NewCluster(6, WithSeed(3), WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		if cluster.Shards() != 3 || cluster.GroupSize() != 2 {
			t.Fatalf("got %d groups of %d, want 3 of 2", cluster.Shards(), cluster.GroupSize())
		}
		st := cluster.Store()
		if st.Shards() != 3 {
			t.Fatalf("store sees %d shards, want 3", st.Shards())
		}
		if err := st.Write(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := st.Read(ctx, "k"); err != nil || string(v) != "v" {
			t.Fatalf("read %q, %v", v, err)
		}
	})

	t.Run("WithShardsIndivisible", func(t *testing.T) {
		if _, err := NewCluster(5, WithShards(2)); err == nil {
			t.Fatal("5 replicas split into 2 groups accepted")
		}
	})
}

// TestNewStoreValidation covers the caller-supplied-clients constructor.
func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(nil); err == nil {
		t.Fatal("empty client slice accepted")
	}

	cluster, err := NewCluster(3, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	st, err := NewStore([]*Client{cluster.Client()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	if err := st.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := st.Read(ctx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("read %q, %v", v, err)
	}
}
