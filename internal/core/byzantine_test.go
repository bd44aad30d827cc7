package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/timestamp"
	"repro/internal/types"
)

// byzCluster is a testCluster whose replica at liarIdx lies: an honest
// Replica whose outbound replies go through a Liar installed as the
// network's interceptor, the same adversary the nemesis harness runs over
// TCP.
type byzCluster struct {
	*testCluster
	liar *Liar
}

func newByzCluster(t *testing.T, n, liarIdx int, mode ByzMode) *byzCluster {
	t.Helper()
	c := &testCluster{t: t, net: netsim.New(netsim.Config{Seed: 60}), nextCli: 1000}
	liarID := types.NodeID(liarIdx)
	liar := NewLiar(liarID, 1)
	liar.SetMode(mode)
	c.net.SetInterceptor(liarID, liar.Intercept)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		r := NewReplica(id, c.net.Node(id))
		r.Start()
		c.replicas = append(c.replicas, r)
		c.ids = append(c.ids, id)
	}
	t.Cleanup(c.close)
	return &byzCluster{testCluster: c, liar: liar}
}

// isolate blocks cli's links to the given honest replicas, so that every
// quorum cli can assemble contains the liar's reply: otherwise whether a
// read sees the lie at all is a race the liar, whose replies take the
// detour through the rewrite, may lose.
func (c *byzCluster) isolate(cli *Client, honest ...types.NodeID) {
	for _, id := range honest {
		c.net.BlockLink(cli.ID(), id)
	}
}

func TestFabricatingReplicaCorruptsPlainMajorityReads(t *testing.T) {
	// The attack the masking extension exists for: with plain majorities, a
	// single fabricating replica wins every read that includes it, because
	// its timestamp is enormous. The reader reaches only {0, 1, 2}, so every
	// majority it assembles includes the liar (replica 0).
	c := newByzCluster(t, 5, 0, ByzFabricate)
	w := c.client(WithSingleWriter())
	r := c.client()
	c.isolate(r, 3, 4)
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "genuine")
	if got := mustRead(t, ctx, r, "x"); got != "byzantine-fabrication" {
		t.Fatalf("plain-majority read with the liar in its quorum returned %q; attack setup is broken", got)
	}
}

func TestMaskingToleratesLiarPlusNothingElse(t *testing.T) {
	// n=5, f=1 masking quorums have size 4: the system needs every honest
	// replica when the liar goes silent, and stalls if one more crashes —
	// the documented n >= 4f+1 resilience budget.
	c := newByzCluster(t, 5, 0, ByzSilent)
	cli := c.client(WithByzantine(1), WithSingleWriter())
	ctx := shortCtx(t)

	mustWrite(t, ctx, cli, "x", "works-with-4-honest")
	if got := mustRead(t, ctx, cli, "x"); got != "works-with-4-honest" {
		t.Fatalf("read %q", got)
	}
}

func TestMaskingMultiWriterUnderAttack(t *testing.T) {
	c := newByzCluster(t, 5, 4, ByzEquivocate)
	ctx := shortCtx(t)

	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for i := 0; i < 3; i++ {
		cli := c.client(WithByzantine(1))
		wg.Add(1)
		go func(i int, cli *Client) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := cli.Write(ctx, "x", []byte(fmt.Sprintf("w%d-%d", i, j))); err != nil {
					errCh <- err
					return
				}
				v, err := cli.Read(ctx, "x")
				if err != nil {
					errCh <- err
					return
				}
				if len(v) > 0 && v[0] != 'w' {
					errCh <- fmt.Errorf("read fabricated value %q", v)
					return
				}
			}
		}(i, cli)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// ---- WithByzantine: the first-class protocol mode ----

func TestWithByzantineOptionValidation(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 7})
	defer net.Close()
	mkIDs := func(n int) []types.NodeID {
		ids := make([]types.NodeID, n)
		for i := range ids {
			ids[i] = types.NodeID(i)
		}
		return ids
	}

	// n=5 f=1 satisfies n >= 4f+1.
	cli, err := NewClient(1000, net.Node(1000), mkIDs(5), WithByzantine(1))
	if err != nil {
		t.Fatalf("n=5 f=1: %v", err)
	}
	if got := cli.ByzantineF(); got != 1 {
		t.Fatalf("ByzantineF() = %d, want 1", got)
	}
	cli.Close()

	// f=0 is the plain crash-fault client: accepted, no validation.
	cli, err = NewClient(1001, net.Node(1001), mkIDs(5), WithByzantine(0))
	if err != nil {
		t.Fatalf("n=5 f=0: %v", err)
	}
	if got := cli.ByzantineF(); got != 0 {
		t.Fatalf("ByzantineF() = %d, want 0 for f=0", got)
	}
	cli.Close()

	// n=4 f=1 violates the masking bound n >= 4f+1.
	if _, err := NewClient(1002, net.Node(1002), mkIDs(4), WithByzantine(1)); err == nil {
		t.Fatal("n=4 f=1 accepted (needs n >= 4f+1)")
	}
	// Negative f is rejected outright.
	if _, err := NewClient(1003, net.Node(1003), mkIDs(5), WithByzantine(-1)); err == nil {
		t.Fatal("f=-1 accepted")
	}
	// The write-back is what repairs honest laggards; disabling it under
	// Byzantine validation would be silently unsound, so it is rejected.
	if _, err := NewClient(1004, net.Node(1004), mkIDs(5), WithByzantine(1), WithReadMode(ReadRegular)); err == nil {
		t.Fatal("WithByzantine(1) + ReadRegular accepted")
	}
}

func TestWithByzantineDefeatsAllModes(t *testing.T) {
	// The one-option spelling must hold against every lying strategy: each
	// read returns what the writer wrote, and no honest replica is ever
	// suspected (the liar is replica 2).
	for _, mode := range []ByzMode{ByzFabricate, ByzStale, ByzSilent, ByzEquivocate} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			c := newByzCluster(t, 5, 2, mode)
			w := c.client(WithByzantine(1), WithSingleWriter())
			r := c.client(WithByzantine(1))
			if mode != ByzSilent {
				c.isolate(r, 4)
			}
			ctx := shortCtx(t)

			for i := 0; i < 10; i++ {
				want := fmt.Sprintf("genuine-%d", i)
				mustWrite(t, ctx, w, "x", want)
				if got := mustRead(t, ctx, r, "x"); got != want {
					t.Fatalf("iteration %d: read %q, want %q", i, got, want)
				}
			}
			for id := range r.Suspects() {
				if id != 2 {
					t.Fatalf("honest replica %v suspected: %v", id, r.Suspects())
				}
			}
			// One query round per read, lie or no lie: only a split vote (a
			// mask retry) and the write-back add rounds.
			if m := r.Metrics(); m.ReadRounds != m.Reads+m.MaskRetries+m.WriteBacks {
				t.Fatalf("ReadRounds = %d, want reads %d + mask retries %d + write-backs %d",
					m.ReadRounds, m.Reads, m.MaskRetries, m.WriteBacks)
			}
		})
	}
}

func TestWithByzantineNamesTheLiar(t *testing.T) {
	// Each liar mode, driven until it leaves evidence no honest replica can
	// produce, is named, and only it. The reader cannot reach replica 4, so
	// every quorum it assembles holds the liar's (replica 2's) reply. A
	// fabricator that never stops is indistinguishable from an honest
	// replica holding an in-flight write whose writer crashed, so it is
	// named when its tag goes back: when it stops lying. A stale liar is
	// named when it goes back from what it reported honestly, an
	// equivocator when one of its random tags falls below the last. A silent
	// liar sends nothing and is never named.
	for _, tc := range []struct {
		name  string
		modes []ByzMode // applied in turn, three write/read rounds each
		named bool
	}{
		{"fabricate-then-stop", []ByzMode{ByzFabricate, 0}, true},
		{"honest-then-stale", []ByzMode{0, ByzStale}, true},
		{"equivocate", []ByzMode{ByzEquivocate}, true},
		{"fabricate-forever", []ByzMode{ByzFabricate}, false},
		{"silent", []ByzMode{0, ByzSilent, 0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newByzCluster(t, 5, 2, 0)
			w := c.client(WithByzantine(1), WithSingleWriter())
			r := c.client(WithByzantine(1))
			if !slices.Contains(tc.modes, ByzSilent) {
				c.isolate(r, 4)
			}
			ctx := shortCtx(t)
			for i, mode := range tc.modes {
				c.liar.SetMode(mode)
				for j := 0; j < 3; j++ {
					want := fmt.Sprintf("genuine-%d-%d", i, j)
					mustWrite(t, ctx, w, "x", want)
					waitStored(t, c.testCluster, "x", want) // the liar's replica too
					if got := mustRead(t, ctx, r, "x"); got != want {
						t.Fatalf("read %q, want %q", got, want)
					}
				}
			}
			got := r.Suspects()
			switch {
			case tc.named && (len(got) != 1 || got[2] == 0):
				t.Fatalf("Suspects() = %v, want only n2", got)
			case !tc.named && len(got) != 0:
				t.Fatalf("Suspects() = %v, want none", got)
			}
			if m := r.Metrics(); m.ByzSuspicions != got[2] {
				t.Fatalf("ByzSuspicions = %d, Suspects() = %v", m.ByzSuspicions, got)
			}
		})
	}
}

func TestWithByzantineNamesAValueSwapper(t *testing.T) {
	// A liar that keeps the true tag but reports another value contradicts
	// the f+1 honest echoes of that tag: a tag names exactly one write.
	c := newByzCluster(t, 5, 2, 0)
	c.net.SetInterceptor(2, func(_ types.NodeID, payload []byte) ([]byte, bool) {
		m, err := decodeMessage(payload)
		if err != nil || m.Kind != KindReadReply || !m.Tag.Valid {
			return payload, true
		}
		m.Val = types.Value("swapped")
		return m.encode(), true
	})
	w := c.client(WithByzantine(1), WithSingleWriter())
	r := c.client(WithByzantine(1))
	c.isolate(r, 4)
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "genuine")
	waitStored(t, c.testCluster, "x", "genuine") // so the liar has a tag to keep
	if got := mustRead(t, ctx, r, "x"); got != "genuine" {
		t.Fatalf("read %q", got)
	}
	if got := r.Suspects(); len(got) != 1 || got[2] != 1 {
		t.Fatalf("Suspects() = %v, want n2 once", got)
	}
}

func TestAuditEvidence(t *testing.T) {
	// The evidence rules, reply by reply, with no network timing involved.
	// prior is what the replica reported before the query; the vouched pair
	// is (tag 5, "v"), or (tag 5, nil) after a write's tag query, whose
	// honest replies carry no value.
	tag := func(seq int64) Tag { return Tag{Valid: true, TS: timestamp.TS{Seq: seq, Writer: 1000}} }
	vouched := message{Tag: tag(5), Val: types.Value("v")}
	for _, tc := range []struct {
		name     string
		prior    Tag
		reply    message
		tagQuery bool
		suspect  bool
	}{
		{"echoes the vouched pair", tag(5), vouched, false, false},
		{"ahead, unsupported (in-flight or lie)", tag(5), message{Tag: tag(9), Val: types.Value("w")}, false, false},
		{"behind the vouched pair, never seen newer", tag(3), message{Tag: tag(3), Val: types.Value("u")}, false, false},
		{"vouched tag, other value", Tag{}, message{Tag: tag(5), Val: types.Value("forged")}, false, true},
		{"tag went back", tag(9), vouched, false, true},
		{"back to the initial state", tag(5), message{}, false, true},
		{"tag query: echoes the vouched tag", tag(5), message{Tag: tag(5)}, true, false},
		{"tag query: vouched tag with a value", tag(5), vouched, true, true},
		{"tag query: tag went back", tag(9), message{Tag: tag(5)}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 5, netsim.Config{Seed: 62})
			cli := c.client(WithByzantine(1))
			prior := make([]Tag, 5)
			prior[2] = tc.prior
			reply := tc.reply
			reply.fromReplica = 2
			vouched := vouched
			if tc.tagQuery {
				vouched.Val = nil
			}
			cli.audit("x", prior, []message{reply}, []message{vouched})
			if got := cli.Suspects()[2] > 0; got != tc.suspect {
				t.Fatalf("suspected = %v, want %v", got, tc.suspect)
			}
			if seen := cli.lastSeen("x"); seen[2] != reply.Tag {
				t.Fatalf("lastSeen = %v, want the reply's tag %v", seen[2], reply.Tag)
			}
		})
	}
}

func TestWithByzantineHonestRunNoFalseSuspicions(t *testing.T) {
	// Suspicion needs evidence no honest replica can produce, so an
	// all-honest cluster never yields any: not under concurrent writers
	// and readers (readers sharing one client), not under dropped and
	// duplicated messages, and not across a crash and recovery.
	c := newTestCluster(t, 5, netsim.Config{Seed: 61})
	c.net.SetDefaultFaults(chaos.Faults{Drop: 0.05, Dup: 0.1})
	opts := []ClientOption{WithByzantine(1), WithRetransmit(10*time.Millisecond, 10*time.Millisecond)}
	writers := []*Client{c.client(opts...), c.client(opts...)}
	r := c.client(opts...)
	ctx := shortCtx(t)

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for i, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				if j == 10 && i == 0 {
					c.net.Crash(3)
				}
				if j == 20 && i == 0 {
					c.net.Recover(3)
				}
				if err := w.Write(ctx, "x", []byte(fmt.Sprintf("v%d-%d", i, j))); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				if _, err := r.Read(ctx, "x"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	m := writers[0].Metrics().Merge(writers[1].Metrics()).Merge(r.Metrics())
	if m.ByzSuspicions != 0 {
		t.Fatalf("honest cluster, but ByzSuspicions = %d (unconfirmed = %d)", m.ByzSuspicions, m.ByzUnconfirmed)
	}
	t.Logf("reads=%d writes=%d unconfirmed=%d mask retries=%d", m.Reads, m.Writes, m.ByzUnconfirmed, m.MaskRetries)
}

func TestLiarIntercept(t *testing.T) {
	l := NewLiar(3, 1)
	reply := message{Kind: KindReadReply, Op: 7, Reg: "x",
		Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 5, Writer: 1}}, Val: types.Value("honest")}
	payload := reply.encode()
	ack := message{Kind: KindWriteAck, Op: 9, Reg: "x"}.encode()

	// Mode 0 (honest) passes everything through untouched.
	if out, ok := l.Intercept(9, payload); !ok || !bytes.Equal(out, payload) {
		t.Fatal("honest mode altered a reply")
	}

	l.SetMode(ByzFabricate)
	out, ok := l.Intercept(9, payload)
	if !ok {
		t.Fatal("fabricate suppressed the reply")
	}
	m, err := decodeMessage(out)
	if err != nil {
		t.Fatalf("fabricated reply does not decode: %v", err)
	}
	if m.Op != 7 || m.Reg != "x" || m.Kind != KindReadReply {
		t.Fatalf("fabrication broke the envelope: %+v", m)
	}
	if m.Tag.TS.Seq != 1<<40 || string(m.Val) != "byzantine-fabrication" {
		t.Fatalf("fabricated pair = (%v, %q)", m.Tag, m.Val)
	}
	// A reply with a written tag and no value answers a write's tag query:
	// the lie there is a tag, with no value either (equivocate likewise).
	tagReply := message{Kind: KindReadReply, Op: 8, Reg: "x", Tag: reply.Tag}.encode()
	for _, mode := range []ByzMode{ByzFabricate, ByzEquivocate} {
		l.SetMode(mode)
		out, ok := l.Intercept(9, tagReply)
		if m, err = decodeMessage(out); !ok || err != nil || m.Tag.TS.Seq < 1<<40 || m.Val != nil {
			t.Fatalf("mode %d: tag-query lie (%v, %q, %v), want a fabricated tag and no value", mode, m.Tag, m.Val, err)
		}
	}
	l.SetMode(ByzFabricate)
	// Requests and acks stay honest: the replica underneath stored the write.
	if out, ok := l.Intercept(9, ack); !ok || !bytes.Equal(out, ack) {
		t.Fatal("fabricate tampered with a write ack")
	}

	l.SetMode(ByzStale)
	out, ok = l.Intercept(9, payload)
	if !ok {
		t.Fatal("stale suppressed the reply")
	}
	if m, err = decodeMessage(out); err != nil {
		t.Fatal(err)
	}
	if m.Tag.Valid || len(m.Val) != 0 {
		t.Fatalf("stale reply should claim initial state, got (%v, %q)", m.Tag, m.Val)
	}

	l.SetMode(ByzEquivocate)
	out1, _ := l.Intercept(9, payload)
	out2, _ := l.Intercept(10, payload)
	m1, err1 := decodeMessage(out1)
	m2, err2 := decodeMessage(out2)
	if err1 != nil || err2 != nil {
		t.Fatalf("equivocated replies do not decode: %v / %v", err1, err2)
	}
	if m1.Tag.TS == m2.Tag.TS && bytes.Equal(m1.Val, m2.Val) {
		t.Fatal("equivocation produced identical lies for two destinations")
	}

	l.SetMode(ByzSilent)
	if _, ok := l.Intercept(9, payload); ok {
		t.Fatal("silent mode let a read reply through")
	}
	if _, ok := l.Intercept(9, ack); ok {
		t.Fatal("silent mode let a write ack through")
	}

	// Non-protocol payloads pass through even while lying.
	l.SetMode(ByzFabricate)
	junk := []byte("not-a-protocol-message")
	if out, ok := l.Intercept(9, junk); !ok || !bytes.Equal(out, junk) {
		t.Fatal("non-protocol payload was altered")
	}

	lies, muted := l.Stats()
	if lies == 0 || muted != 2 {
		t.Fatalf("Stats() = (%d lies, %d muted), want lies > 0 and muted == 2", lies, muted)
	}
}

// TestTagQueryLiesReachOnlyPlainWriters: a write's query asks for tags
// only, and the liar lies on those replies too. A plain multi-writer client
// whose every quorum holds the liar adopts the fabricated tag as its floor;
// a WithByzantine writer in the same position keeps its tags where the
// honest replicas' are, and names the liar from the tags alone (an
// equivocated tag below one it reported before).
func TestTagQueryLiesReachOnlyPlainWriters(t *testing.T) {
	c := newByzCluster(t, 5, 0, ByzEquivocate)
	ctx := shortCtx(t)

	masked := c.client(WithByzantine(1))
	c.isolate(masked, 4)
	const writes = 10
	for i := 0; i < writes; i++ {
		mustWrite(t, ctx, masked, "y", fmt.Sprintf("v%d", i))
	}
	for _, r := range c.replicas[1:4] {
		if tag, _ := r.State("y"); tag.TS.Seq > writes {
			t.Fatalf("replica %v holds y at %v: a fabricated tag steered a validated write", r.ID(), tag)
		}
	}
	if got := masked.Suspects(); len(got) != 1 || got[0] == 0 {
		t.Fatalf("Suspects() = %v, want the liar n0 alone", got)
	}

	plain := c.client()
	c.isolate(plain, 3, 4)
	mustWrite(t, ctx, plain, "x", "steered")
	if tag, _ := c.replicas[1].State("x"); tag.TS.Seq < 1<<40 {
		t.Fatalf("plain write took tag %v: the liar's tag-query reply never reached it", tag)
	}
}

func TestWithByzantineEquivocateUnderConcurrentReads(t *testing.T) {
	// Concurrent readers of one register share one client, and every quorum
	// they can form contains the equivocating liar; each read must return
	// the validated pair, never a lie.
	c := newByzCluster(t, 5, 2, ByzEquivocate)
	w := c.client(WithByzantine(1), WithSingleWriter())
	r := c.client(WithByzantine(1))
	c.isolate(r, 4)
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "honest")

	const readers, perReader = 8, 25
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perReader; j++ {
				v, err := r.Read(ctx, "x")
				if err != nil {
					errCh <- err
					return
				}
				if string(v) != "honest" {
					errCh <- fmt.Errorf("concurrent read returned %q, want %q", v, "honest")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := r.Suspects(); len(got) != 1 || got[2] == 0 {
		t.Fatalf("equivocating liar in every read quorum, but Suspects() = %v", got)
	}
}

func TestMaskingValidate(t *testing.T) {
	if err := quorum.NewMasking(5, 1).Validate(); err != nil {
		t.Fatalf("n=5 f=1: %v", err)
	}
	if err := quorum.NewMasking(4, 1).Validate(); err == nil {
		t.Fatal("n=4 f=1 accepted (needs n >= 4f+1)")
	}
	if err := quorum.NewMasking(9, 2).Validate(); err != nil {
		t.Fatalf("n=9 f=2: %v", err)
	}
	m := quorum.NewMasking(5, 1)
	if m.QuorumSize() != 4 {
		t.Fatalf("quorum size %d, want 4", m.QuorumSize())
	}
	if m.MinIntersection() != 3 {
		t.Fatalf("min intersection %d, want 3 (= 2f+1)", m.MinIntersection())
	}
}
