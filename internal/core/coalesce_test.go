package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/netsim"
)

// TestCoalescedReadsShareRounds: concurrent reads of one register through
// one client collapse into shared quorum rounds — every reader gets the
// value, but the client runs far fewer phases than readers.
func TestCoalescedReadsShareRounds(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 61, MinDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond})
	cli := c.client()
	ctx := shortCtx(t)
	mustWrite(t, ctx, cli, "x", "v")

	const readers = 32
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := cli.Read(ctx, "x")
			if err != nil {
				errs <- err
				return
			}
			if string(v) != "v" {
				errs <- fmt.Errorf("read %q, want v", v)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := cli.Metrics()
	if m.Reads != readers {
		t.Fatalf("reads = %d, want %d", m.Reads, readers)
	}
	if m.CoalescedReads == 0 {
		t.Fatal("no reads coalesced despite 32 concurrent readers")
	}
	// A solo read costs up to 2 phases. With coalescing, followers cost 0.
	if maxPhases := int64(2 * (readers - m.CoalescedReads + 2)); m.Phases > maxPhases {
		t.Fatalf("phases = %d with %d coalesced reads, want <= %d", m.Phases, m.CoalescedReads, maxPhases)
	}
}

// TestAbsorbedWritesShareRounds: concurrent multi-writer writes through one
// client are absorbed into shared rounds, and the register ends holding one
// of the written values.
func TestAbsorbedWritesShareRounds(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 62, MinDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond})
	cli := c.client()
	ctx := shortCtx(t)

	const writers = 16
	vals := map[string]bool{}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		v := fmt.Sprintf("v%d", i)
		vals[v] = true
		wg.Add(1)
		go func(v string) {
			defer wg.Done()
			if err := cli.Write(ctx, "x", []byte(v)); err != nil {
				errs <- err
			}
		}(v)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := cli.Metrics()
	if m.Writes != writers {
		t.Fatalf("writes = %d, want %d", m.Writes, writers)
	}
	if m.AbsorbedWrites == 0 {
		t.Fatal("no writes absorbed despite 16 concurrent writers")
	}
	if got := mustRead(t, ctx, cli, "x"); !vals[got] {
		t.Fatalf("final value %q was never written", got)
	}
}

// TestSingleWriterNeverAbsorbs: the single-writer fast path keeps its
// per-write tags; absorption must not engage.
func TestSingleWriterNeverAbsorbs(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 64, MinDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond})
	cli := c.client(WithSingleWriter())
	ctx := shortCtx(t)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = cli.Write(ctx, "x", []byte(fmt.Sprintf("v%d", i)))
		}(i)
	}
	wg.Wait()
	if m := cli.Metrics(); m.AbsorbedWrites != 0 {
		t.Fatalf("single-writer client absorbed %d writes", m.AbsorbedWrites)
	}
}

// TestSharedClientHistoriesLinearizable is the coalescing counterpart of
// TestRandomScheduleHistoriesLinearizable: several goroutines share each
// client, so reads coalesce and writes absorb, and every recorded history
// must still be linearizable. This is the direct check of the coalescing
// join rule (adopt a round only if its broadcast started after your
// invocation) and of absorbed-write ordering.
func TestSharedClientHistoriesLinearizable(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := newTestCluster(t, 3, netsim.Config{
				Seed:     seed,
				MinDelay: 0,
				MaxDelay: 3 * time.Millisecond,
			})
			ctx := shortCtx(t)
			rec := history.NewRecorder()

			// Two clients, each shared by several goroutines.
			wcli := c.client()
			rcli := c.client()

			const writers, readers, opsPer = 3, 4, 12
			var wg sync.WaitGroup
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for j := 0; j < opsPer; j++ {
						val := []byte(fmt.Sprintf("w%d-%d", id, j))
						p := rec.BeginWrite(id, val)
						if err := wcli.Write(ctx, "x", val); err != nil {
							p.Crash()
							return
						}
						p.EndWrite()
					}
				}(i)
			}
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for j := 0; j < opsPer; j++ {
						p := rec.BeginRead(id)
						v, err := rcli.Read(ctx, "x")
						if err != nil {
							p.Crash()
							return
						}
						p.EndRead(v)
					}
				}(writers + i)
			}
			wg.Wait()

			cm, rm := wcli.Metrics(), rcli.Metrics()
			t.Logf("absorbed %d/%d writes, coalesced %d/%d reads",
				cm.AbsorbedWrites, cm.Writes, rm.CoalescedReads, rm.Reads)
			res := lincheck.CheckRegister(rec.Ops(), lincheck.Config{Timeout: 20 * time.Second})
			if res.Outcome != lincheck.Linearizable {
				t.Fatalf("seed %d: %v (%d ops)", seed, res.Outcome, len(rec.Ops()))
			}
		})
	}
}
