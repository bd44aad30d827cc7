package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/netsim"
)

// TestWriteBackPreventsNewOldInversion is experiment T3 in deterministic
// miniature. It constructs the exact adversarial schedule the paper's
// write-back exists for:
//
//  1. a write of "new" reaches only replica 0 (links to 1 and 2 blocked),
//  2. reader A reads through quorum {0,1} and returns "new",
//  3. reader B then reads through quorum {1,2} and returns "old".
//
// Without the write-back this is a new/old inversion — B, strictly after A,
// observes an older value — and the checker rejects the history. With the
// write-back, A propagates "new" to a write quorum before returning, so B
// must see it and the history is linearizable.
func TestWriteBackPreventsNewOldInversion(t *testing.T) {
	for _, withWriteBack := range []bool{true, false} {
		name := "with-write-back"
		if !withWriteBack {
			name = "no-write-back"
		}
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 3, netsim.Config{Seed: 30})
			ctx := shortCtx(t)

			w := c.client(WithSingleWriter())
			var ropts []ClientOption
			if !withWriteBack {
				ropts = append(ropts, WithReadMode(ReadRegular))
			}
			ra := c.client(ropts...)
			rb := c.client(ropts...)

			rec := history.NewRecorder()

			// Stable base value on all replicas.
			p := rec.BeginWrite(0, []byte("old"))
			mustWrite(t, ctx, w, "x", "old")
			p.EndWrite()

			// The write of "new" reaches replica 0 only and hangs.
			c.net.BlockLink(w.ID(), 1)
			c.net.BlockLink(w.ID(), 2)
			// The blocked updates are dropped (not queued), so this write can
			// never complete: give it a short deadline and record it as
			// pending — exactly the "writer crashed mid-write" case the
			// checker's completion handling covers.
			pw := rec.BeginWrite(0, []byte("new"))
			writeDone := make(chan error, 1)
			wctx, wcancel := context.WithTimeout(ctx, 500*time.Millisecond)
			defer wcancel()
			go func() { writeDone <- w.Write(wctx, "x", []byte("new")) }()

			waitReplicaValue(t, c, 0, "x", "new")

			// Reader A: quorum {0,1}.
			c.net.BlockLink(ra.ID(), 2)
			pa := rec.BeginRead(1)
			gotA := mustRead(t, ctx, ra, "x")
			pa.EndRead([]byte(gotA))
			if gotA != "new" {
				t.Fatalf("reader A read %q, want new", gotA)
			}

			// Reader B: quorum {1,2}, strictly after A returned.
			c.net.BlockLink(rb.ID(), 0)
			pb := rec.BeginRead(2)
			gotB := mustRead(t, ctx, rb, "x")
			pb.EndRead([]byte(gotB))

			// Let the write finish so the history is cleanly completed.
			c.net.UnblockLink(w.ID(), 1)
			c.net.UnblockLink(w.ID(), 2)
			if err := <-writeDone; err != nil {
				pw.Crash()
			} else {
				pw.EndWrite()
			}

			res := lincheck.CheckRegister(rec.Ops(), lincheck.Config{})
			if withWriteBack {
				if gotB != "new" {
					t.Fatalf("write-back failed to propagate: B read %q", gotB)
				}
				if res.Outcome != lincheck.Linearizable {
					t.Fatalf("atomic mode produced a non-linearizable history: %v", res.Outcome)
				}
			} else {
				if gotB != "old" {
					t.Fatalf("expected the inversion: B read %q, want old", gotB)
				}
				if res.Outcome != lincheck.NotLinearizable {
					t.Fatalf("checker verdict %v, want NOT linearizable", res.Outcome)
				}
			}
		})
	}
}

func waitReplicaValue(t *testing.T, c *testCluster, replica int, reg, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, val := c.replicas[replica].State(reg)
		if string(val) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d never stored %q", replica, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRandomScheduleHistoriesLinearizable is T3's randomized half: under
// random delays and concurrent clients, every recorded ABD history is
// linearizable, across seeds.
func TestRandomScheduleHistoriesLinearizable(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := runRecordedWorkload(t, seed, nil)
			res := lincheck.CheckRegister(ops, lincheck.Config{Timeout: 20 * time.Second})
			if res.Outcome != lincheck.Linearizable {
				t.Fatalf("seed %d: %v (%d ops)", seed, res.Outcome, len(ops))
			}
		})
	}
}

// TestSharedClientHistoriesLinearizable checks concurrent operations through
// one shared client: several goroutines share each of two clients, so one
// client has several reads, or several multi-writer writes, of the same
// register in flight at once, and every recorded history must still be
// linearizable. Each of those writes must carry its own tag
// (TestNextTagNeverReusesATag); two writes naming different values with one
// tag are what this test catches.
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

			res := lincheck.CheckRegister(rec.Ops(), lincheck.Config{Timeout: 20 * time.Second})
			if res.Outcome != lincheck.Linearizable {
				t.Fatalf("seed %d: %v (%d ops)", seed, res.Outcome, len(rec.Ops()))
			}
		})
	}
}

// TestNextTagNeverReusesATag pins the rule that a client never issues one
// tag twice: two nextTag calls for one register, with nothing installed in
// between, return strictly increasing tags in both writer modes. A
// multi-writer client's two query phases see the same newest tag, so only
// the client's per-register counter keeps the second tag above the first.
// Under bounded labels, k concurrent nextTag calls through one client see
// the same live labels, so only issuing under one tagMu hold keeps their k
// labels distinct.
func TestNextTagNeverReusesATag(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []ClientOption
	}{
		{"single-writer", []ClientOption{WithSingleWriter()}},
		{"multi-writer", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 3, netsim.Config{Seed: 31})
			cli := c.client(tc.opts...)
			ctx := shortCtx(t)
			mustWrite(t, ctx, cli, "x", "v")

			first, err := cli.nextTag(ctx, "x", opTrace{})
			if err != nil {
				t.Fatal(err)
			}
			second, err := cli.nextTag(ctx, "x", opTrace{})
			if err != nil {
				t.Fatal(err)
			}
			if !first.TS.Less(second.TS) {
				t.Fatalf("second tag %v not above first %v", second.TS, first.TS)
			}
		})
	}
	t.Run("bounded-concurrent", func(t *testing.T) {
		const window, k = 16, 8
		c := newTestCluster(t, 3, netsim.Config{Seed: 32})
		cli := c.client(WithSingleWriter(), WithBoundedLabels(window))
		ctx := shortCtx(t)
		mustWrite(t, ctx, cli, "x", "v")

		labels := make([]int64, k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for i := range labels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tag, err := cli.nextTag(ctx, "x", opTrace{})
				labels[i], errs[i] = tag.Label, err
			}()
		}
		wg.Wait()
		seen := make(map[int64]bool, k)
		for i, l := range labels {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if seen[l] {
				t.Fatalf("label %d issued twice among %v", l, labels)
			}
			seen[l] = true
		}
	})
}

// runRecordedWorkload runs a concurrent read/write mix over a 3-replica
// cluster with randomized delays, recording every operation.
func runRecordedWorkload(t *testing.T, seed int64, extraOpts []ClientOption) []history.Op {
	t.Helper()
	c := newTestCluster(t, 3, netsim.Config{
		Seed:     seed,
		MinDelay: 0,
		MaxDelay: 3 * time.Millisecond,
	})
	ctx := shortCtx(t)
	rec := history.NewRecorder()

	const writers, readers, opsPer = 2, 3, 15
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		cli := c.client(extraOpts...)
		wg.Add(1)
		go func(id int, cli *Client) {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				val := []byte(fmt.Sprintf("w%d-%d", id, j))
				p := rec.BeginWrite(id, val)
				if err := cli.Write(ctx, "x", val); err != nil {
					p.Crash()
					return
				}
				p.EndWrite()
			}
		}(i, cli)
	}
	for i := 0; i < readers; i++ {
		cli := c.client(extraOpts...)
		wg.Add(1)
		go func(id int, cli *Client) {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				p := rec.BeginRead(id)
				v, err := cli.Read(ctx, "x")
				if err != nil {
					p.Crash()
					return
				}
				p.EndRead(v)
			}
		}(writers+i, cli)
	}
	wg.Wait()
	return rec.Ops()
}
