package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/timestamp"
	"repro/internal/types"
)

// TestPhaseCompletesIffLiveSetContainsQuorum is the executable spec of
// Client.phase, for every quorum system in internal/quorum: with every
// replica outside a live set crashed, a query phase completes iff the live
// set contains a read quorum, and an update phase iff it contains a write
// quorum. A completed phase returns one reply per counted replica, all from
// live replicas (duplicated deliveries discarded), and their senders
// satisfy the phase's predicate; a phase that cannot complete fails with
// ErrNoQuorum. Every live set of each system is tried.
func TestPhaseCompletesIffLiveSetContainsQuorum(t *testing.T) {
	for _, sys := range []quorum.System{
		quorum.NewMajority(5),
		quorum.NewGrid(2, 3),
		quorum.NewWeighted([]int{3, 1, 1, 1, 1}, 4, 4),
		quorum.NewReadOneWriteAll(4),
		quorum.NewReadAllWriteOne(4),
		quorum.NewMasking(5, 1),
	} {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			t.Parallel()
			n := sys.Size()
			// Duplicated deliveries make every replica likely to answer twice.
			c := newTestCluster(t, n, netsim.Config{Seed: 70})
			c.net.SetDefaultFaults(chaos.Faults{Dup: 0.5})
			cli := c.client(WithQuorum(sys))
			tag := Tag{Valid: true, TS: timestamp.TS{Seq: 1, Writer: cli.ID()}}

			// check runs one phase and compares its outcome with want. A phase
			// that should stall gets a short deadline: every live replica
			// answers within microseconds on an undelayed net.
			check := func(req message, pred func(quorum.Set) bool, live quorum.Set, want bool) error {
				timeout := 25 * time.Millisecond
				if want {
					timeout = 10 * time.Second
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				replies, err := cli.phase(ctx, req, pred, opTrace{}, req.Kind.String())
				if !want {
					if !errors.Is(err, types.ErrNoQuorum) {
						return fmt.Errorf("%s phase: got %d replies, err %v; want ErrNoQuorum", req.Kind, len(replies), err)
					}
					return nil
				}
				if err != nil {
					return fmt.Errorf("%s phase failed: %v", req.Kind, err)
				}
				var from quorum.Set
				for _, m := range replies {
					i, ok := cli.index[m.fromReplica]
					if !ok || !live.Has(i) || from.Has(i) {
						return fmt.Errorf("%s phase counted %v twice, while crashed, or from outside the group", req.Kind, m.fromReplica)
					}
					from = from.Add(i)
				}
				if !pred(from) {
					return fmt.Errorf("%s phase returned repliers %b, not a quorum", req.Kind, from)
				}
				return nil
			}

			for s := 0; s < 1<<n; s++ {
				live := quorum.Set(s)
				for i := 0; i < n; i++ {
					if !live.Has(i) {
						c.net.Crash(types.NodeID(i))
					}
				}
				errs := make(chan error, 2)
				go func() {
					errs <- check(message{Kind: KindReadQuery, Reg: "x"},
						cli.qs.ContainsReadQuorum, live, sys.ContainsReadQuorum(live))
				}()
				go func() {
					errs <- check(message{Kind: KindWrite, Reg: "x", Tag: tag, Val: types.Value("v")},
						cli.qs.ContainsWriteQuorum, live, sys.ContainsWriteQuorum(live))
				}()
				for k := 0; k < 2; k++ {
					if err := <-errs; err != nil {
						t.Errorf("live set %0*b: %v", n, live, err)
					}
				}
				for i := 0; i < n; i++ {
					c.net.Recover(types.NodeID(i))
				}
			}
		})
	}
}
