package nemesis

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/lincheck"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

// TestCounterMergesSumEveryField: each counter set the cluster totals is
// merged by its own Merge, which must sum every field — a field added to
// the struct but not to Merge reads 0 in every total.
func TestCounterMergesSumEveryField(t *testing.T) {
	checkMerge(t, tcpnet.Stats.Merge)
	checkMerge(t, core.ReplicaMetrics.Merge)
	checkMerge(t, core.MetricsSnapshot.Merge)
}

// checkMerge sets field i of one value to i+1 and of another to 100(i+1)
// by reflection, and checks that merge gives 101(i+1) in every field.
func checkMerge[T any](t *testing.T, merge func(T, T) T) {
	t.Helper()
	var a, b T
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range va.NumField() {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum := reflect.ValueOf(merge(a, b))
	for i := range sum.NumField() {
		if got, want := sum.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%T.Merge: %s = %d, want %d", a, sum.Type().Field(i).Name, got, want)
		}
	}
}

// TestGenerateScheduleDeterministic: for every genre set the schedule is a
// pure function of its inputs — same seed, same script; different seed,
// different script — every schedule includes a crash+restart episode and
// passes the cluster-shape validation, and each set keeps its own
// guarantee. Byzantine without liars and sharded with one group are the
// classic schedule.
func TestGenerateScheduleDeterministic(t *testing.T) {
	clients := []types.NodeID{9000, 9001, 9002, 9003, 9004, 9005}
	rows := []struct {
		name    string
		genres  Genres
		cfg     Config
		clients []types.NodeID
		check   func(t *testing.T, seed int64, sched failure.Schedule)
	}{
		{"classic", ClassicGenres, Config{}, clients[:3], nil},
		{"byzantine", ByzantineGenres, Config{Byzantine: 1}, clients[:5], checkCrashUnderFabricate},
		{"fast-read", FastReadGenres, Config{}, clients[:2], checkWriterSlowdown},
		{"sharded", ShardedGenres, Config{Groups: 3, N: 3}, clients, checkTwoGroupsPerWindow},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			gen := func(seed int64) failure.Schedule {
				cfg := row.cfg
				cfg.Seed = seed
				return GenerateSchedule(row.genres, cfg, row.clients)
			}
			if a, b := gen(7).String(), gen(7).String(); a != b {
				t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
			}
			if gen(7).String() == gen(8).String() {
				t.Fatal("different seeds produced identical schedules")
			}
			for _, seed := range []int64{1, 2, 3, 4, 5} {
				sched := gen(seed)
				if s := sched.String(); !strings.Contains(s, "crash:") || !strings.Contains(s, "recover:") {
					t.Errorf("seed %d schedule has no crash+restart episode: %s", seed, s)
				}
				if row.check != nil {
					row.check(t, seed, sched)
				}
			}
			if err := ValidateSchedule(gen(7), row.cfg); err != nil {
				t.Errorf("generated schedule fails validation: %v", err)
			}
		})
	}
	plain := GenerateSchedule(ClassicGenres, Config{Seed: 9}, clients).String()
	if got := GenerateSchedule(ByzantineGenres, Config{Seed: 9}, clients).String(); got != plain {
		t.Error("f=0 Byzantine schedule should equal the classic schedule")
	}
	if got := GenerateSchedule(ShardedGenres, Config{Seed: 9, Groups: 1}, clients).String(); got != plain {
		t.Error("one-group sharded schedule should equal the classic schedule")
	}
}

// checkCrashUnderFabricate: liars are turned back to honesty, and some
// replica crashes at the instant the liars start fabricating — the masking
// quorum must absorb both adversaries at once.
func checkCrashUnderFabricate(t *testing.T, seed int64, sched failure.Schedule) {
	if !strings.Contains(sched.String(), ":off") {
		t.Errorf("seed %d schedule never restores honesty: %s", seed, sched)
	}
	fabricating := map[time.Duration]bool{}
	for _, ev := range sched {
		if b, ok := ev.Action.(failure.Byz); ok && b.Mode == int(core.ByzFabricate) {
			fabricating[ev.At] = true
		}
	}
	for _, ev := range sched {
		if _, ok := ev.Action.(failure.Crash); ok && fabricating[ev.At] {
			return
		}
	}
	t.Errorf("seed %d schedule has no crash-under-fabricate episode: %s", seed, sched)
}

// checkWriterSlowdown: some window blocks the writers' links to a replica,
// manufacturing the holder divergence (some replicas a tag ahead of the
// rest) the fast path must survive.
func checkWriterSlowdown(t *testing.T, seed int64, sched failure.Schedule) {
	if s := sched.String(); !strings.Contains(s, "block:") || !strings.Contains(s, "unblock:") {
		t.Errorf("seed %d schedule has no writer-slowdown episode: %s", seed, s)
	}
}

// checkTwoGroupsPerWindow: every window faults replicas of two distinct
// groups (of 3 replicas) at the same instant.
func checkTwoGroupsPerWindow(t *testing.T, seed int64, sched failure.Schedule) {
	byTime := map[time.Duration]map[int]bool{}
	for _, ev := range sched {
		var victim types.NodeID = -1
		switch a := ev.Action.(type) {
		case failure.Crash:
			victim = a.Node
		case failure.Block:
			victim = a.To
		}
		if victim < 0 {
			continue
		}
		if byTime[ev.At] == nil {
			byTime[ev.At] = map[int]bool{}
		}
		byTime[ev.At][int(victim)/3] = true
	}
	for at, groups := range byTime {
		if len(groups) != 2 {
			t.Errorf("seed %d: window at %v faults %d groups, want exactly 2", seed, at, len(groups))
		}
	}
}

// TestShardedNemesisLinearizable is the sharded acceptance run: 3 replica
// groups of 3 persistent replicas on a real tcpnet loopback cluster, every
// logical client a shard.Store, and a schedule faulting two groups at once
// in every window. Each register's history must stay linearizable (the
// store's per-register atomicity claim), registers must actually spread
// over all groups, and trace stitching must survive with every span
// carrying its shard tag.
func TestShardedNemesisLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("nemesis runs take seconds each")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := Run(ctx, Config{Groups: 3, N: 3, Seed: 404})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ops %d (failed %d), outcome %v, shards %d, register map %v",
		res.Ops, res.Failed, res.Outcome, res.Shards, res.RegisterShard)
	t.Logf("schedule: %s", res.Schedule)
	if res.Outcome == lincheck.NotLinearizable {
		for reg, r := range res.Results {
			if r.Outcome == lincheck.NotLinearizable {
				t.Errorf("register %q (shard %d) NOT linearizable",
					reg, res.RegisterShard[reg])
			}
		}
		t.Fatalf("sharded history NOT linearizable; schedule %s", res.Schedule)
	}
	total := 5 * 40 // (writers+readers) * OpsPerClient
	if res.Ops+res.Failed != total {
		t.Errorf("recorded %d ops, want %d", res.Ops+res.Failed, total)
	}
	if res.Ops < total*3/4 {
		t.Errorf("only %d/%d ops completed — sharded liveness under nemesis too weak", res.Ops, total)
	}

	// Every register got a per-register verdict and a shard assignment, and
	// the workload's registers span more than one group.
	if res.Shards != 3 {
		t.Errorf("Result.Shards = %d, want 3", res.Shards)
	}
	groupsUsed := map[int]bool{}
	for reg, g := range res.RegisterShard {
		groupsUsed[g] = true
		if _, ok := res.Results[reg]; !ok {
			t.Errorf("register %q has a shard but no lincheck verdict", reg)
		}
	}
	if len(groupsUsed) != 3 {
		t.Errorf("workload registers landed on %d group(s); the harness spreads them over all 3", len(groupsUsed))
	}

	// Stitching holds under sharding, and spans carry shard tags from every
	// group (client, transport, and replica emitters are all tagged).
	t.Logf("%d spans (%d dropped), stitch %d/%d (%.1f%%)",
		len(res.Spans), res.SpansDropped, res.Stitch.Stitched, res.Stitch.Total,
		100*res.Stitch.Ratio())
	if res.Stitch.Total == 0 {
		t.Error("no remote spans collected")
	}
	if res.Stitch.Ratio() < 0.95 {
		t.Errorf("stitch ratio %.3f < 0.95 under sharding", res.Stitch.Ratio())
	}
	tagged := map[int]bool{}
	untagged := 0
	for _, sp := range res.Spans {
		if sp.Shard == 0 {
			untagged++
			continue
		}
		tagged[sp.Shard] = true
	}
	if untagged > 0 {
		t.Errorf("%d spans missing a shard tag in a sharded run", untagged)
	}
	if len(tagged) != 3 {
		t.Errorf("spans tagged with %d distinct shards, want 3", len(tagged))
	}
}

// TestNemesisLinearizable is the acceptance run: three distinct seeded
// fault schedules against a real 5-node tcpnet cluster with persistent
// replicas, 200 client operations each (2 writers + 3 readers x 40), all
// histories linearizable. Every schedule includes a crash+restart of a
// persistent replica (every genre set guarantees it).
func TestNemesisLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("nemesis runs take seconds each")
	}
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run(string(rune('A'+seed%26)), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			res, err := Run(ctx, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: %d ops (%d failed), outcome %v, retransmits %d, "+
				"dial failures/suppressed %d/%d, chaos %+v",
				seed, res.Ops, res.Failed, res.Outcome, res.Client.Retransmits,
				res.Transport.DialFailures, res.Transport.SuppressedSends, res.Chaos)
			t.Logf("schedule: %s", res.Schedule)
			if res.Outcome == lincheck.NotLinearizable {
				t.Fatalf("seed %d: history NOT linearizable; schedule %s", seed, res.Schedule)
			}
			if res.Outcome == lincheck.Unknown {
				// Too many pending writes or checker timeout: the run is
				// inconclusive, not wrong. Surface it loudly without failing
				// a (timing-dependent) real-network test.
				t.Logf("seed %d: verdict Unknown (pending=%d)", seed, res.Failed)
			}
			if res.Ops+res.Failed != 200 {
				t.Errorf("recorded %d ops, want 200", res.Ops+res.Failed)
			}
			if res.Ops < 150 {
				t.Errorf("only %d/200 ops completed — liveness under nemesis too weak", res.Ops)
			}
			if res.Transport.Flushes == 0 {
				t.Errorf("transport totals count no flushes: %+v", res.Transport)
			}
			// Trace stitching must survive the nemesis: nearly every replica-
			// and transport-side span collected during the run traces back to
			// the client operation that caused it. Chaos corruption can
			// scramble a trailer (a junk trace id on a frame the receiver then
			// rejects by CRC), so the bar is 95%, not 100%.
			t.Logf("seed %d: %d spans (%d dropped), stitch %d/%d (%.1f%%) across %d traces",
				seed, len(res.Spans), res.SpansDropped, res.Stitch.Stitched,
				res.Stitch.Total, 100*res.Stitch.Ratio(), res.Stitch.Traces)
			if res.Stitch.Total == 0 {
				t.Error("no remote spans collected — tracing is not wired through the nemesis cluster")
			}
			if res.Stitch.Ratio() < 0.95 {
				t.Errorf("stitch ratio %.3f < 0.95 (%d/%d remote spans reached an op)",
					res.Stitch.Ratio(), res.Stitch.Stitched, res.Stitch.Total)
			}
			if res.Stitch.Ops == 0 {
				t.Error("no operation root spans collected")
			}
		})
	}
}

// TestGroupCommitCrashMidBatchLinearizable crashes a persistent replica
// while its group-commit queue is full, restarts it, then crashes TWO
// OTHER replicas — from that point a quorum of 3 (out of 5) must include
// the restarted process, so the run only stays live if replica 1 rejoined
// from its WAL. The workload runs with almost no think time against disks
// that take 2 ms to sync — on the page cache a commit is over in a few
// hundred microseconds, before a second write can join it — so commits
// really batch (asserted via the merged batch-size histogram), which means
// the crash lands mid-batch with positive probability: the unacked tail of
// a torn batch may vanish, but every acked write must survive — the
// linearizability checker is the judge.
func TestGroupCommitCrashMidBatchLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("nemesis runs take seconds each")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sched := failure.Schedule{
		{At: 80 * time.Millisecond, Action: failure.Crash{Node: 1}},
		{At: 240 * time.Millisecond, Action: failure.Recover{Node: 1}},
		{At: 400 * time.Millisecond, Action: failure.Crash{Node: 0}},
		{At: 400 * time.Millisecond, Action: failure.Crash{Node: 2}},
		{At: 560 * time.Millisecond, Action: failure.Recover{Node: 0}},
		{At: 560 * time.Millisecond, Action: failure.Recover{Node: 2}},
	}
	res, err := Run(ctx, Config{
		N: 5, Writers: 3, Readers: 2, OpsPerClient: 60, Registers: 2,
		Seed:       77,
		OpInterval: 4 * time.Millisecond, // dense load: keep the commit queues full
		FsyncDelay: 2 * time.Millisecond,
		Schedule:   sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ops %d (failed %d), outcome %v, batches %d (max size %d), fsyncs %d / updates %d",
		res.Ops, res.Failed, res.Outcome, res.Replica.Batches, res.BatchSizes.Max,
		res.Replica.Fsyncs, res.Replica.Updates)
	if res.Outcome == lincheck.NotLinearizable {
		t.Fatalf("history NOT linearizable after mid-batch crash/restart; schedule %s", res.Schedule)
	}
	total := 5 * 60 // (writers+readers) * OpsPerClient
	if res.Ops+res.Failed != total {
		t.Errorf("recorded %d ops, want %d", res.Ops+res.Failed, total)
	}
	if res.Ops < total*8/10 {
		t.Errorf("only %d/%d ops completed — the restarted replica likely never rejoined the quorum", res.Ops, total)
	}
	// The load must actually have exercised group commit, or the crash never
	// had a batch to land in.
	if res.Replica.Batches == 0 {
		t.Error("no group commits recorded — batching never engaged")
	}
	if res.BatchSizes.Max < 2 {
		t.Errorf("max batch size %d — writes never coalesced into a multi-record commit", res.BatchSizes.Max)
	}
	if res.Replica.Updates > 0 && res.Replica.Fsyncs >= res.Replica.Updates {
		t.Errorf("fsyncs %d >= updates %d — group commit bought no fsync amortization",
			res.Replica.Fsyncs, res.Replica.Updates)
	}
}

// TestClusterCrashRestartRecoversFromWAL pins the crash path in isolation:
// stop a replica, write while it is down, restart it, and the recovered
// process still holds its pre-crash adopted state.
func TestClusterCrashRestartRecoversFromWAL(t *testing.T) {
	cl, err := NewCluster(Config{N: 3, Writers: 1, Readers: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cli := cl.Clients()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := cli.Write(ctx, "r0", []byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	cl.Crash(1)
	if !cl.Crashed(1) {
		t.Fatal("replica 1 not reported crashed")
	}
	// Majority is alive: the protocol keeps serving.
	if err := cli.Write(ctx, "r0", []byte("while-down")); err != nil {
		t.Fatalf("write with one replica down: %v", err)
	}
	cl.Recover(1)
	if cl.Crashed(1) {
		t.Fatal("replica 1 still reported crashed after recover")
	}
	// Crash a different replica: if replica 1 rejoined with its WAL state
	// (or catches up via the protocol), reads still return the latest value.
	cl.Crash(0)
	val, err := cli.Read(ctx, "r0")
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "while-down" {
		t.Fatalf("read %q after crash/restart cycle", val)
	}
}
