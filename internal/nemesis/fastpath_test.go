package nemesis

import (
	"context"
	"testing"
	"time"

	"repro/internal/lincheck"
	"repro/internal/types"
)

// TestFastReadNemesisLinearizable is the fast-path acceptance run: three
// seeded write-vs-fast-read race schedules against a real 5-replica tcpnet
// cluster, all clients running the default read mode (one-round fast path
// on), every writer and reader hammering ONE register. The schedule blocks
// writer links, crashes replicas mid-traffic (restarts rejoin behind, on
// their WAL), and drops/reorders updates, so the replicas a read hears keep
// diverging on who holds the newest pair. The recorded history must stay
// linearizable AND the fast path must actually fire during the run — a
// race nobody entered proves nothing.
func TestFastReadNemesisLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("nemesis runs take seconds each")
	}
	for _, seed := range []int64{11, 22, 33} {
		seed := seed
		t.Run(string(rune('A'+seed%26)), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cfg := Config{Seed: seed, Registers: 1}
			cfg.Schedule = GenerateSchedule(FastReadGenres, cfg, []types.NodeID{clientBase, clientBase + 1})
			res, err := Run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: %d ops (%d failed), outcome %v, reads %d, fast %d, rounds %d",
				seed, res.Ops, res.Failed, res.Outcome,
				res.Client.Reads, res.Client.FastPathReads, res.Client.ReadRounds)
			t.Logf("schedule: %s", res.Schedule)
			if res.Outcome == lincheck.NotLinearizable {
				for reg, r := range res.Results {
					if r.Outcome == lincheck.NotLinearizable {
						t.Errorf("register %q NOT linearizable", reg)
					}
				}
				t.Fatalf("seed %d: history NOT linearizable under fast-read race; schedule %s",
					seed, res.Schedule)
			}
			if res.Ops+res.Failed != 200 {
				t.Errorf("recorded %d ops, want 200", res.Ops+res.Failed)
			}
			if res.Ops < 150 {
				t.Errorf("only %d/200 ops completed — liveness under the race schedule too weak", res.Ops)
			}
			if res.Client.FastPathReads == 0 {
				t.Error("no read took the fast path — the race never happened")
			}
			// Fast reads pay 1 round, slow reads >= 2: the mean must sit
			// strictly between, or the accounting is broken.
			if res.Client.Reads > 0 && res.Client.ReadRounds < res.Client.Reads {
				t.Errorf("ReadRounds %d < Reads %d", res.Client.ReadRounds, res.Client.Reads)
			}
		})
	}
}
