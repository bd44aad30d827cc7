package nemesis

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/lincheck"
	"repro/internal/types"
)

// TestByzantineClusterLiarWiring pins the injection path on a real tcpnet
// cluster: flipping one replica to fabricate makes its outbound replies
// lie (the liar tallies rewrites) while validated clients keep returning
// the honest value; clearing the mode restores a correct replica
// instantly, and the tag it then reports, far below its fabrication, names
// it.
func TestByzantineClusterLiarWiring(t *testing.T) {
	cl, err := NewCluster(Config{N: 5, Byzantine: 1, Writers: 1, Readers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cli := cl.Clients()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := cli.Write(ctx, "r0", []byte("honest")); err != nil {
		t.Fatal(err)
	}
	cl.SetByzantine(2, int(core.ByzFabricate))
	// Cut the client off from one honest replica, so that every masking
	// quorum (4 of 5) has to contain the liar's reply: otherwise whether a
	// read sees the lie at all is a race the liar — whose replies take the
	// detour through the rewrite — usually loses.
	cl.BlockLink(cli.ID(), 4)
	defer cl.UnblockLink(cli.ID(), 4)
	for i := 0; i < 5; i++ {
		val, err := cli.Read(ctx, "r0")
		if err != nil {
			t.Fatalf("read %d under fabrication: %v", i, err)
		}
		if string(val) != "honest" {
			t.Fatalf("read %d adopted the lie: %q", i, val)
		}
	}
	lies, _ := cl.LiarStats()
	if lies == 0 {
		t.Error("liar never rewrote a reply — interceptor not wired")
	}
	if m := cli.Metrics(); m.ByzUnconfirmed == 0 {
		t.Error("client never saw the fabricated tag ahead of the vouched one")
	}
	if got := cli.Suspects(); len(got) != 0 {
		t.Errorf("suspects %v while the fabrication was consistent", got)
	}
	cl.ClearByzantine()
	if _, err := cli.Read(ctx, "r0"); err != nil {
		t.Fatalf("read after honesty restored: %v", err)
	}
	if got := cli.Suspects(); len(got) != 1 || got[2] == 0 {
		t.Errorf("suspects %v after the liar's tag went back, want only n2", got)
	}
}

// TestByzantineNemesisLinearizable is the Byzantine acceptance run: three
// seeded schedules against a real 5-replica tcpnet cluster (n=5, f=1, so
// n > 3f and the design bound n >= 4f+1 both hold), each window turning
// one replica into a liar on the wire — fabricated max-tags, equivocation,
// stale state, silence — layered with crashes, loss storms, and latency
// spikes. Every register's history must stay linearizable, the liars must
// actually lie, and the clients must name a liar, only replicas the
// schedule made lie, with the first evidence inside the schedule's span.
func TestByzantineNemesisLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("nemesis runs take seconds each")
	}
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run(string(rune('A'+seed%26)), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cfg := Config{Byzantine: 1, Seed: seed}
			res, err := Run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: %d ops (%d failed), outcome %v, lies %d (muted %d), "+
				"suspects %v, unconfirmed %d, mask retries %d",
				seed, res.Ops, res.Failed, res.Outcome, res.Lies, res.Muted,
				res.Health.Byzantine.Suspects, res.Client.ByzUnconfirmed, res.Client.MaskRetries)
			t.Logf("schedule: %s", res.Schedule)
			if res.Outcome == lincheck.NotLinearizable {
				for reg, r := range res.Results {
					if r.Outcome == lincheck.NotLinearizable {
						t.Errorf("register %q NOT linearizable", reg)
					}
				}
				t.Fatalf("seed %d: history NOT linearizable under Byzantine faults; schedule %s",
					seed, res.Schedule)
			}
			if res.Outcome == lincheck.Unknown {
				t.Logf("seed %d: verdict Unknown (pending=%d)", seed, res.Failed)
			}
			if res.Ops+res.Failed != 200 {
				t.Errorf("recorded %d ops, want 200", res.Ops+res.Failed)
			}
			if res.Ops < 150 {
				t.Errorf("only %d/200 ops completed — liveness under Byzantine nemesis too weak", res.Ops)
			}
			// The adversary must have fired and the clients must have named
			// it: an all-zero run proves nothing. Suspicion needs evidence no
			// honest replica can produce, so every suspect lied at some point.
			if res.Lies == 0 {
				t.Error("liars never rewrote a reply — the schedule's byz episodes did not run")
			}
			if len(res.Health.Byzantine.Suspects) == 0 {
				t.Error("no replica suspected — no lie left evidence")
			}
			sched, err := failure.Parse(res.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			lied := make(map[types.NodeID]bool)
			for _, ev := range sched {
				if b, ok := ev.Action.(failure.Byz); ok && b.Mode != 0 {
					lied[b.Node] = true
				}
			}
			for id := range res.Health.Byzantine.Suspects {
				if !lied[types.NodeID(id)] {
					t.Errorf("replica %v suspected but never lied", id)
				}
			}
			// The evidence must land inside the fault schedule's span: the
			// monitor timeline locates the first piece.
			span := time.Duration(6) * 700 * time.Millisecond // Windows x Window defaults
			firstAt := time.Duration(-1)
			for _, s := range res.Health.ByzTimeline {
				if s.Suspicions > 0 {
					firstAt = s.At.Sub(res.Health.Start)
					break
				}
			}
			if firstAt < 0 {
				t.Error("timeline never observed a suspicion")
			} else if firstAt > span+700*time.Millisecond {
				t.Errorf("first suspicion at %v, outside the schedule span %v", firstAt, span)
			}
		})
	}
}

// TestByzantineNemesisControlRun is the fault-free control: same cluster,
// same validated clients, but an empty schedule — nobody lies. The run
// must be linearizable and suspect no one: suspicion rests on evidence no
// honest replica can produce, so an honest race is never an accusation.
// This is what makes a named replica in the faulted runs meaningful.
func TestByzantineNemesisControlRun(t *testing.T) {
	if testing.Short() {
		t.Skip("nemesis runs take seconds each")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := Run(ctx, Config{Byzantine: 1, Seed: 42, Schedule: failure.Schedule{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("control: %d ops (%d failed), outcome %v, lies %d, suspects %v, unconfirmed %d",
		res.Ops, res.Failed, res.Outcome, res.Lies,
		res.Health.Byzantine.Suspects, res.Client.ByzUnconfirmed)
	if res.Outcome == lincheck.NotLinearizable {
		t.Fatalf("control run NOT linearizable")
	}
	if res.Lies != 0 {
		t.Errorf("control run recorded %d lies with no byz schedule", res.Lies)
	}
	if len(res.Health.Byzantine.Suspects) != 0 || res.Client.ByzSuspicions != 0 {
		t.Errorf("control run suspects %v — validation is accusing honest replicas", res.Health.Byzantine.Suspects)
	}
	if res.Ops+res.Failed != 200 {
		t.Errorf("recorded %d ops, want 200", res.Ops+res.Failed)
	}
	if res.Ops < 190 {
		t.Errorf("only %d/200 ops completed in a fault-free run", res.Ops)
	}
}

// TestByzantineClusterRejectsShardedConfig: Byzantine mode is a
// single-group feature; the constructor must say so rather than silently
// running unvalidated shards.
func TestByzantineClusterRejectsShardedConfig(t *testing.T) {
	if _, err := NewCluster(Config{Byzantine: 1, Groups: 2, N: 5}); err == nil {
		t.Fatal("NewCluster accepted Byzantine mode with Groups=2")
	}
}
