package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/timestamp"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestFastReadIffHoldersCoverWriteQuorum is the fast path's soundness
// property, for every quorum system in internal/quorum: a read skips its
// write-back iff the repliers that reported the newest pair contain a write
// quorum — and a read that does write back
// leaves the pair at one. Holder sets are installed directly; which
// replicas a read's quorum ends up counting is up to the (randomly delayed)
// network, so the oracle takes them from the query phase's span.
func TestFastReadIffHoldersCoverWriteQuorum(t *testing.T) {
	systems := []struct {
		sys        quorum.System
		opts       []ClientOption
		minHolders int  // fewest holders a trial installs (masking: f+1 votes in any quorum)
		wantHit    bool // some trial must take the fast path
		wantMiss   bool // some trial must write back
	}{
		{sys: quorum.NewMajority(5), minHolders: 1, wantHit: true, wantMiss: true},
		{sys: quorum.NewGrid(3, 3), minHolders: 1, wantHit: true, wantMiss: true},
		{sys: quorum.NewWeighted([]int{3, 1, 1, 1, 1}, 4, 4), minHolders: 1, wantHit: true, wantMiss: true},
		// Read-one: a read quorum is whoever answers first, never all n.
		{sys: quorum.NewReadOneWriteAll(4), minHolders: 1, wantMiss: true},
		// Write-one: any holder among the (all-n) repliers is a write quorum.
		{sys: quorum.NewReadAllWriteOne(4), minHolders: 1, wantHit: true},
		{sys: quorum.NewMasking(5, 1), opts: []ClientOption{WithByzantine(1)}, minHolders: 3, wantHit: true, wantMiss: true},
	}
	for si, tc := range systems {
		tc := tc
		t.Run(tc.sys.Name(), func(t *testing.T) {
			n := tc.sys.Size()
			c := newTestCluster(t, n, netsim.Config{Seed: int64(80 + si), MaxDelay: 200 * time.Microsecond})
			col := obs.NewCollector(0)
			r := c.client(append([]ClientOption{WithQuorum(tc.sys), WithTracer(col)}, tc.opts...)...)
			ctx := shortCtx(t)
			rng := rand.New(rand.NewSource(int64(si)))
			tag := Tag{Valid: true, TS: timestamp.TS{Seq: 1, Writer: 7}}

			hits, misses := 0, 0
			for trial := 0; trial < 40; trial++ {
				reg := fmt.Sprintf("r%d", trial)
				// Every fourth trial installs everywhere (a hit wherever the counted
				// repliers can cover a write quorum at all), the next the fewest
				// allowed; the rest are random subsets.
				var installed quorum.Set
				for _, i := range rng.Perm(n) {
					switch {
					case trial%4 == 0, installed.Count() < tc.minHolders, trial%4 > 1 && rng.Intn(2) == 0:
						installed = installed.Add(i)
						c.install(i, reg, tag, "v")
					}
				}

				before := r.Metrics()
				got := mustRead(t, ctx, r, reg)
				m := r.Metrics()

				var holders quorum.Set
				for _, sp := range col.Spans() {
					if sp.Kind == "phase" && sp.Phase == "query" && sp.Reg == reg {
						for id := range sp.ReplicaRTT {
							if installed.Has(int(id)) {
								holders = holders.Add(int(id))
							}
						}
					}
				}
				fast := m.FastPathReads - before.FastPathReads
				wb := m.WriteBacks - before.WriteBacks
				switch {
				case holders == 0:
					if got != "" || fast+wb != 0 {
						t.Fatalf("trial %d: no replier held the pair, read %q fast=%d wb=%d", trial, got, fast, wb)
					}
					continue
				case got != "v":
					t.Fatalf("trial %d: read %q, want v", trial, got)
				}
				if want := tc.sys.ContainsWriteQuorum(holders); (fast == 1) != want || fast+wb != 1 {
					t.Fatalf("trial %d: holders %b of installed %b: fast=%d write-backs=%d, want fast path = %v",
						trial, holders, installed, fast, wb, want)
				}
				if wb == 1 {
					misses++
					if at := c.holding(reg, "v"); !tc.sys.ContainsWriteQuorum(at) {
						t.Fatalf("trial %d: read wrote back yet the pair is only at %b", trial, at)
					}
				} else {
					hits++
				}
			}
			if tc.wantHit && hits == 0 || tc.wantMiss && misses == 0 {
				t.Errorf("%d hits, %d misses: the trials did not exercise both outcomes", hits, misses)
			}
		})
	}
}

// hangWrite starts a write that cannot complete (the caller has cut its
// quorum off) and returns the func that abandons it and waits it out.
func hangWrite(ctx context.Context, w *Client, reg, val string) (stop func()) {
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Write(wctx, reg, []byte(val))
	}()
	return func() {
		cancel()
		<-done
	}
}

// TestFastReadWritesBackInFlightWriteAtDisjointReadQuorum is the schedule
// that breaks a unanimity skip on quorum systems whose read quorums do not
// pairwise intersect: an in-flight write is stored at one read quorum only,
// a reader hears exactly that quorum — unanimously the new pair — and a
// later reader hears a disjoint one. The holders are no write quorum, so
// the first read must write back before returning; the later reader then
// cannot see the old value.
func TestFastReadWritesBackInFlightWriteAtDisjointReadQuorum(t *testing.T) {
	for _, tc := range []struct {
		sys     quorum.System
		partial quorum.Set // the read quorum the in-flight write reached
		later   quorum.Set // a read quorum disjoint from it
	}{
		{quorum.NewReadOneWriteAll(3), quorum.Set(0).Add(0), quorum.Set(0).Add(2)},
		{quorum.NewGrid(2, 2), quorum.Set(0).Add(0).Add(1), quorum.Set(0).Add(2).Add(3)},
	} {
		tc := tc
		t.Run(tc.sys.Name(), func(t *testing.T) {
			n := tc.sys.Size()
			c := newTestCluster(t, n, netsim.Config{Seed: 90})
			opts := []ClientOption{WithQuorum(tc.sys), WithRetransmit(2*time.Millisecond, 2*time.Millisecond)}
			ctx := shortCtx(t)

			w := c.client(opts...)
			mustWrite(t, ctx, w, "x", "old")
			waitStored(t, c, "x", "old")

			// The in-flight write: it reaches partial only and never returns.
			for i := 0; i < n; i++ {
				if !tc.partial.Has(i) {
					c.net.BlockLink(w.ID(), types.NodeID(i))
				}
			}
			defer hangWrite(ctx, w, "x", "new")()
			waitFor(t, func() bool {
				return c.holding("x", "new") == tc.partial
			})

			// r1 hears only partial: a full read quorum, unanimous on "new".
			r1 := c.client(opts...)
			for i := 0; i < n; i++ {
				if !tc.partial.Has(i) {
					c.net.BlockLink(types.NodeID(i), r1.ID())
				}
			}
			read := make(chan string, 1)
			go func() {
				v, err := r1.Read(ctx, "x")
				if err != nil {
					v = []byte("error: " + err.Error())
				}
				read <- string(v)
			}()
			// The write-back cannot finish until r1 hears the other replicas'
			// acks; heal once it is on the wire (or the read wrongly returned).
			waitFor(t, func() bool {
				return r1.Metrics().Phases >= 2 || len(read) == 1
			})
			for i := 0; i < n; i++ {
				c.net.UnblockLink(types.NodeID(i), r1.ID())
			}
			if got := <-read; got != "new" {
				t.Fatalf("r1 read %q, want new", got)
			}
			if m := r1.Metrics(); m.FastPathReads != 0 || m.WriteBacks != 1 {
				t.Fatalf("r1 skipped the write-back on a lone read quorum's word: fast=%d write-backs=%d",
					m.FastPathReads, m.WriteBacks)
			}
			if at := c.holding("x", "new"); !tc.sys.ContainsWriteQuorum(at) {
				t.Fatalf("r1 returned with the pair only at %b", at)
			}

			// A later reader confined to a read quorum disjoint from partial.
			r2 := c.client(opts...)
			for i := 0; i < n; i++ {
				if !tc.later.Has(i) {
					c.net.BlockLink(types.NodeID(i), r2.ID())
				}
			}
			if _, v, err := r2.QueryMax(ctx, "x"); err != nil || string(v) != "new" {
				t.Fatalf("later read quorum %b saw %q (%v) after r1 returned new: new/old inversion", tc.later, v, err)
			}
		})
	}
}

// claimant is a Byzantine test replica that answers every query by claiming
// to store whatever pair it was last told to claim, and acks writes without
// storing them.
type claimant struct {
	mu  sync.Mutex
	tag Tag
	val string
}

func (cl *claimant) claim(tag Tag, val string) {
	cl.mu.Lock()
	cl.tag, cl.val = tag, val
	cl.mu.Unlock()
}

func (cl *claimant) serve(ep transport.Endpoint) {
	for raw := range ep.Recv() {
		m, err := decodeMessage(raw.Payload)
		if err != nil {
			continue
		}
		reply := message{Kind: KindWriteAck, Op: m.Op, Reg: m.Reg}
		switch m.Kind {
		case KindReadQuery:
			cl.mu.Lock()
			reply = message{Kind: KindReadReply, Op: m.Op, Reg: m.Reg, Tag: cl.tag, Val: types.Value(cl.val)}
			cl.mu.Unlock()
		case KindTagQuery:
			cl.mu.Lock()
			reply = message{Kind: KindReadReply, Op: m.Op, Reg: m.Reg, Tag: cl.tag}
			cl.mu.Unlock()
		}
		_ = ep.Send(raw.From, reply.encode())
	}
}

// TestFastReadByzantineClaimantCannotMintHit: an in-flight write is stored
// at f+1 honest replicas — enough to be vouched — and the liar echoes the
// very pair the reader will validate. Its word adds one holder, never
// enough on its own: the honest holders fall short of a masking write
// quorum, so the read must write back. Echoing the tag under a forged value
// does not even count as holding.
func TestFastReadByzantineClaimantCannotMintHit(t *testing.T) {
	for _, claimed := range []string{"new", "forged"} {
		claimed := claimed
		t.Run("claims="+claimed, func(t *testing.T) {
			const n, f, liarID = 5, 1, 4
			c := newTestCluster(t, n-1, netsim.Config{Seed: 91})
			c.ids = append(c.ids, liarID)
			liar := &claimant{}
			go liar.serve(c.net.Node(liarID))
			sys := quorum.NewMasking(n, f)
			ctx := shortCtx(t)

			w := c.client(WithByzantine(f), WithSingleWriter())
			mustWrite(t, ctx, w, "x", "old")
			waitStored(t, c, "x", "old")

			// The in-flight write reaches honest replicas 0 and 1 only.
			c.net.BlockLink(w.ID(), 2)
			c.net.BlockLink(w.ID(), 3)
			defer hangWrite(ctx, w, "x", "new")()
			waitFor(t, func() bool {
				return c.holding("x", "new").Count() == 2
			})
			tag, _ := c.replicas[0].State("x")
			liar.claim(tag, claimed)

			// The reader never hears replica 2, so its quorum is {0,1,3,liar}:
			// both honest holders vouch for the new pair.
			r := c.client(WithByzantine(f))
			c.net.BlockLink(2, r.ID())
			if got := mustRead(t, ctx, r, "x"); got != "new" {
				t.Fatalf("read %q, want new", got)
			}
			m := r.Metrics()
			if m.FastPathReads != 0 || m.WriteBacks != 1 {
				t.Fatalf("the liar's claim minted a fast-path hit: fast=%d write-backs=%d", m.FastPathReads, m.WriteBacks)
			}
			// The write-back's quorum holds at most the one liar: the honest
			// holders are now what the fast path would have had to find.
			if at := c.holding("x", "new"); at.Count() < sys.QuorumSize()-f {
				t.Fatalf("read returned with only %d honest holders, want >= %d", at.Count(), sys.QuorumSize()-f)
			}
		})
	}
}
