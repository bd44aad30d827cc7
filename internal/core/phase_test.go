package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
			check := func(req message, pred func(quorum.Set) bool, table []quorum.Set, live quorum.Set, want bool) error {
				timeout := 25 * time.Millisecond
				if want {
					timeout = 10 * time.Second
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				replies, err := cli.phase(ctx, req, pred, table, opTrace{}, req.Kind.String())
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
						cli.qs.ContainsReadQuorum, cli.queryTargets, live, sys.ContainsReadQuorum(live))
				}()
				go func() {
					errs <- check(message{Kind: KindWrite, Reg: "x", Tag: tag, Val: types.Value("v")},
						cli.qs.ContainsWriteQuorum, nil, live, sys.ContainsWriteQuorum(live))
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

// TestInboxSignalsOnceAtQuorum: the reply collector wakes its phase only
// with the reply that completes the quorum — never below it, never for a
// duplicate, never again after — and counts nothing once it has. It keeps
// the per-reply offsets a traced phase's span reports.
func TestInboxSignalsOnceAtQuorum(t *testing.T) {
	in := &opInbox{
		pred: quorum.NewMajority(5).ContainsReadQuorum, start: time.Now(),
		notify: make(chan struct{}, 1), rtts: map[int64]time.Duration{},
	}
	signalled := func() bool {
		select {
		case <-in.notify:
			return true
		default:
			return false
		}
	}
	for step, tc := range []struct {
		from            int
		counted, signal bool
	}{
		{0, true, false}, {0, false, false}, {1, true, false}, {1, false, false},
		{2, true, true}, {2, false, false}, {3, false, false}, {4, false, false},
	} {
		if got := in.offer(tc.from, message{fromReplica: types.NodeID(tc.from)}); got != tc.counted {
			t.Fatalf("step %d: reply from %d counted = %v, want %v", step, tc.from, got, tc.counted)
		}
		if got := signalled(); got != tc.signal {
			t.Fatalf("step %d: reply from %d signalled = %v, want %v", step, tc.from, got, tc.signal)
		}
	}
	if len(in.replies) != 3 || in.set != quorum.Full(3) || len(in.rtts) != 3 || in.last < in.first {
		t.Fatalf("inbox kept %d replies from %b, %d RTTs, first %v last %v; want the quorum {0,1,2}",
			len(in.replies), in.set, len(in.rtts), in.first, in.last)
	}

	// Concurrent offers, every replica answering several times: one signal.
	in = &opInbox{pred: quorum.NewMajority(5).ContainsReadQuorum, start: time.Now(), notify: make(chan struct{}, 1)}
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in.offer(i, message{fromReplica: types.NodeID(i)})
			}()
		}
	}
	wg.Wait() // a second signal would block its offer forever
	if !signalled() || signalled() || len(in.replies) != 3 {
		t.Fatalf("concurrent offers: %d replies counted, want exactly 3 and one signal", len(in.replies))
	}
}
