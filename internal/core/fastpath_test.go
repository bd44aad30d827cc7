package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// checkReadAccounting pins the crash-mode read identities on a client whose
// reads all led their own round and hit a written register: every read pays
// the query round plus a write-back iff it ran one, and every read either
// hit the fast path or wrote back.
func checkReadAccounting(t *testing.T, m MetricsSnapshot) {
	t.Helper()
	if m.ReadRounds != m.Reads+m.WriteBacks {
		t.Errorf("ReadRounds = %d, want reads %d + write-backs %d", m.ReadRounds, m.Reads, m.WriteBacks)
	}
	if m.FastPathReads+m.WriteBacks != m.Reads {
		t.Errorf("fast %d + write-backs %d != reads %d", m.FastPathReads, m.WriteBacks, m.Reads)
	}
}

// TestFastPathSkipsWriteBack: once a write has landed, quiescent reads
// complete in one round — no write-back, from the very first read of a
// fresh client, because the repliers themselves hold the pair at a write
// quorum — and the counters account for every hop.
func TestFastPathSkipsWriteBack(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 71})
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "v1")
	waitStored(t, c, "x", "v1")

	const reads = 6
	for i := 0; i < reads; i++ {
		if got := mustRead(t, ctx, r, "x"); got != "v1" {
			t.Fatalf("read %d: %q", i, got)
		}
	}
	m := r.Metrics()
	if m.FastPathReads != reads || m.WriteBacksSkipped != reads || m.WriteBacks != 0 {
		t.Errorf("fast=%d skipped=%d write-backs=%d, want %d/%d/0",
			m.FastPathReads, m.WriteBacksSkipped, m.WriteBacks, reads, reads)
	}
	checkReadAccounting(t, m)
	if got := r.Latency().ReadRounds.Count; got != m.Reads {
		t.Errorf("ReadRounds histogram count = %d, want %d", got, m.Reads)
	}
}

// TestFastPathAlternatingClientsOneRound: two clients take turns writing
// and reading one register. The reader never wrote the pair it reads, yet
// every quiescent read is one round: the repliers that hold the other
// client's pair are the whole evidence.
func TestFastPathAlternatingClientsOneRound(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 76})
	a, b := c.client(), c.client()
	ctx := shortCtx(t)

	writer, reader := a, b
	for i := 0; i < 10; i++ {
		val := fmt.Sprintf("v%d", i)
		mustWrite(t, ctx, writer, "x", val)
		waitStored(t, c, "x", val)
		if got := mustRead(t, ctx, reader, "x"); got != val {
			t.Fatalf("round %d: read %q, want %q", i, got, val)
		}
		writer, reader = reader, writer
	}
	for _, cli := range []*Client{a, b} {
		m := cli.Metrics()
		if m.Reads != 5 || m.ReadRounds != m.Reads || m.WriteBacks != 0 {
			t.Errorf("client %v: reads=%d rounds=%d write-backs=%d, want 5 one-round reads",
				cli.ID(), m.Reads, m.ReadRounds, m.WriteBacks)
		}
		checkReadAccounting(t, m)
	}
}

// TestFastPathNoEvidenceForcesSlowPath: when the repliers holding the
// newest pair fall short of a write quorum, the fast path must NOT fire —
// the read pays the write-back, which is what makes it atomic — and only
// the next read, with that write-back as its evidence, goes fast. The next
// read waits for the write-back to land everywhere: it returns at a write
// quorum of acks, and a replica still committing it may answer the next
// query first, which rightly costs that read a write-back of its own.
func TestFastPathNoEvidenceForcesSlowPath(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 72})
	w := c.client()
	r := c.client()
	ctx := shortCtx(t)

	// Both writes land at the bare majority {0,1,2}; replicas 3 and 4 never
	// see either.
	c.net.BlockLink(w.ID(), 3)
	c.net.BlockLink(w.ID(), 4)
	mustWrite(t, ctx, w, "x", "v1")
	mustWrite(t, ctx, w, "x", "v2")
	// The reader never hears replica 0, so every read quorum it assembles
	// holds at most two of the three holders.
	c.net.BlockLink(0, r.ID())

	if got := mustRead(t, ctx, r, "x"); got != "v2" {
		t.Fatalf("read %q, want v2", got)
	}
	m := r.Metrics()
	if m.FastPathReads != 0 || m.WriteBacks != 1 {
		t.Fatalf("read without evidence: fast=%d write-backs=%d, want 0/1", m.FastPathReads, m.WriteBacks)
	}

	waitStored(t, c, "x", "v2")
	if got := mustRead(t, ctx, r, "x"); got != "v2" {
		t.Fatalf("second read %q, want v2", got)
	}
	m = r.Metrics()
	if m.FastPathReads != 1 {
		t.Errorf("second read did not take the fast path: %+v", m)
	}
	checkReadAccounting(t, m)
}

// TestFastPathBoundedLabels: holder evidence is tag equality, which cyclic
// labels support, so bounded-label clients get one-round reads too.
func TestFastPathBoundedLabels(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 77})
	w := c.client(WithBoundedLabels(16))
	r := c.client(WithBoundedLabels(16))
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "v")
	waitStored(t, c, "x", "v")
	if got := mustRead(t, ctx, r, "x"); got != "v" {
		t.Fatalf("read %q", got)
	}
	if m := r.Metrics(); m.FastPathReads != 1 || m.WriteBacks != 0 {
		t.Errorf("bounded quiescent read: fast=%d write-backs=%d, want 1/0", m.FastPathReads, m.WriteBacks)
	}
}

// TestFastPathUnderWriteContention: interleaved writes and reads. Every
// read must return the latest completed write's value or a concurrent one,
// and the fast path must get hits between tag changes without ever serving
// a stale value after a write completed.
func TestFastPathUnderWriteContention(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 73, MinDelay: 50 * time.Microsecond, MaxDelay: 300 * time.Microsecond})
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)

	for i := 0; i < 20; i++ {
		val := strings.Repeat("x", i+1) // distinguishable lengths
		mustWrite(t, ctx, w, "reg", val)
		// Two reads per write: the first may pay the write-back for the new
		// tag, the second should find the pair at a write quorum of holders.
		for j := 0; j < 2; j++ {
			got := mustRead(t, ctx, r, "reg")
			if len(got) != i+1 {
				t.Fatalf("write %d read %d: got len %d, want %d (read went backwards)",
					i, j, len(got), i+1)
			}
		}
	}
	m := r.Metrics()
	if m.FastPathReads == 0 {
		t.Error("no fast-path hits across 20 write/read-read cycles")
	}
	t.Logf("reads=%d fast=%d rounds=%d", m.Reads, m.FastPathReads, m.ReadRounds)
}

// TestFastPathConcurrentReads: concurrent reads of one register through one
// client each run their own rounds, complete via the fast path, and all see
// the written value.
func TestFastPathConcurrentReads(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 74, MinDelay: 100 * time.Microsecond, MaxDelay: 400 * time.Microsecond})
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "v")
	if got := mustRead(t, ctx, r, "x"); got != "v" { // leaves v at a write quorum
		t.Fatalf("priming read %q", got)
	}

	const readers, rounds = 8, 5
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := r.Read(ctx, "x")
				if err != nil {
					errs <- err
				} else if string(v) != "v" {
					errs <- fmt.Errorf("read %q, want %q", v, "v")
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	m := r.Metrics()
	if m.FastPathReads == 0 {
		t.Error("no concurrent read completed via the fast path")
	}
	if m.ReadRounds > 2*m.Reads {
		t.Errorf("ReadRounds=%d exceeds 2x reads %d", m.ReadRounds, m.Reads)
	}
}

// TestReadModeValidation is one table over the three read modes: the zero
// value is ReadAtomic, ReadMode() reports what WithReadMode set, and each
// mode's round accounting holds on a written register.
func TestReadModeValidation(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 75})
	var zero ReadMode
	if got := c.client().ReadMode(); got != ReadAtomic || zero != ReadAtomic {
		t.Errorf("default ReadMode %d, want the zero value ReadAtomic", got)
	}
	w := c.client(WithSingleWriter())
	ctx := shortCtx(t)
	mustWrite(t, ctx, w, "x", "v")
	waitStored(t, c, "x", "v")

	for _, tc := range []struct {
		name  string
		mode  ReadMode
		check func(m MetricsSnapshot) bool
	}{
		{"atomic", ReadAtomic, func(m MetricsSnapshot) bool { return m.FastPathReads+m.WriteBacks == m.Reads }},
		{"two-phase", ReadTwoPhase, func(m MetricsSnapshot) bool { return m.FastPathReads == 0 && m.WriteBacks == m.Reads }},
		{"regular", ReadRegular, func(m MetricsSnapshot) bool { return m.WriteBacks == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := c.client(WithReadMode(tc.mode))
			if got := r.ReadMode(); got != tc.mode {
				t.Fatalf("ReadMode() = %d, want %d", got, tc.mode)
			}
			for i := 0; i < 5; i++ {
				if got := mustRead(t, ctx, r, "x"); got != "v" {
					t.Fatalf("read %d: %q", i, got)
				}
			}
			if m := r.Metrics(); m.Reads != 5 || !tc.check(m) {
				t.Errorf("round accounting broken: reads=%d fast=%d write-backs=%d",
					m.Reads, m.FastPathReads, m.WriteBacks)
			}
		})
	}

	if _, err := NewClient(c.nextCli, c.net.Node(c.nextCli), c.ids, WithReadMode(ReadRegular+1)); err == nil {
		t.Error("NewClient accepted an unknown read mode")
	}
}
