package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/timestamp"
	"repro/internal/transport"
	"repro/internal/types"
)

func TestPersistentReplicaRecoversState(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "replica-0.wal")
	net := netsim.New(netsim.Config{Seed: 70})
	defer net.Close()

	// Generation 1: adopt some writes.
	r0, err := NewPersistentReplica(0, net.Node(0), logPath)
	if err != nil {
		t.Fatal(err)
	}
	r0.Start()
	for i := 1; i <= 2; i++ {
		id := types.NodeID(i)
		rep := NewReplica(id, net.Node(id))
		rep.Start()
		defer rep.Stop()
	}
	cli, err := NewClient(1000, net.Node(1000), []types.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := shortCtx(t)
	mustWrite(t, ctx, cli, "a", "va")
	mustWrite(t, ctx, cli, "b", "vb")
	mustWrite(t, ctx, cli, "a", "va2")

	// Wait until replica 0 actually adopted everything.
	waitFor(t, func() bool {
		ta, va := r0.State("a")
		tb, _ := r0.State("b")
		return ta.Valid && tb.Valid && string(va) == "va2"
	})
	r0.Stop()

	// Generation 2: a fresh process replays the log.
	net2 := netsim.New(netsim.Config{Seed: 71})
	defer net2.Close()
	r0b, err := NewPersistentReplica(0, net2.Node(0), logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r0b.Stop()

	tag, val := r0b.State("a")
	if !tag.Valid || string(val) != "va2" {
		t.Fatalf("recovered a = %q (tag %+v)", val, tag)
	}
	if tag.TS.Seq != 2 {
		t.Fatalf("recovered a seq = %d, want 2", tag.TS.Seq)
	}
	_, valB := r0b.State("b")
	if string(valB) != "vb" {
		t.Fatalf("recovered b = %q", valB)
	}
}

func TestPersistentReplicaToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "torn.wal")

	// Build a log with two full records, then append garbage simulating a
	// torn write during a crash.
	p, _, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	full1 := record{reg: "x", tag: Tag{Valid: true}, val: []byte("v1")}
	full1.tag.TS.Seq = 1
	full2 := record{reg: "x", tag: Tag{Valid: true}, val: []byte("v2")}
	full2.tag.TS.Seq = 2
	if err := p.appendBatch([]record{full1}); err != nil {
		t.Fatal(err)
	}
	if err := p.appendBatch([]record{full2}); err != nil {
		t.Fatal(err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 1, 2, 3}); err != nil { // truncated body
		t.Fatal(err)
	}
	f.Close()

	net := netsim.New(netsim.Config{Seed: 72})
	defer net.Close()
	r, err := NewPersistentReplica(0, net.Node(0), logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	tag, val := r.State("x")
	if !tag.Valid || tag.TS.Seq != 2 || string(val) != "v2" {
		t.Fatalf("recovered %q (tag %+v), want v2@seq2", val, tag)
	}
}

// TestPersistDetectsCorruption flips one body byte in the middle of a log:
// the open must refuse with ErrLogCorrupt rather than replay wrong state.
func TestPersistDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "bitrot.wal")
	p, _, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		rec := record{reg: "x", tag: Tag{Valid: true}, val: []byte(fmt.Sprintf("v%d", i))}
		rec.tag.TS.Seq = int64(i)
		if err := p.appendBatch([]record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the second record's body (well past the 8-byte
	// magic and the first record).
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	data[mid] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	net := netsim.New(netsim.Config{Seed: 75})
	defer net.Close()
	_, err = NewPersistentReplica(0, net.Node(0), logPath)
	if err == nil {
		t.Fatal("corrupted log opened without error")
	}
	if !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("corrupted log error = %v, want ErrLogCorrupt", err)
	}
}

// TestPersistRejectsLogWithoutMagic: a non-empty file that does not start
// with the log's magic header is not a log this replica wrote — a
// checksum-less legacy log, or some other file named by mistake. Opening
// it fails with ErrLogCorrupt and leaves it byte-identical.
func TestPersistRejectsLogWithoutMagic(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "legacy.wal")

	// A legacy-framed log: [4-byte len][body] records, no magic, no CRC.
	var raw []byte
	for i := 1; i <= 2; i++ {
		rec := record{reg: "x", tag: Tag{Valid: true}, val: []byte(fmt.Sprintf("v%d", i))}
		rec.tag.TS.Seq = int64(i)
		body := appendEntry(nil, rec.reg, rec.tag, rec.val)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		raw = append(raw, hdr[:]...)
		raw = append(raw, body...)
	}
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	net := netsim.New(netsim.Config{Seed: 76})
	defer net.Close()
	if r, err := NewPersistentReplica(0, net.Node(0), logPath); !errors.Is(err, ErrLogCorrupt) {
		if r != nil {
			r.Stop()
		}
		t.Fatalf("open of a log without magic: err = %v, want ErrLogCorrupt", err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, raw) {
		t.Fatalf("rejected log was modified: %d bytes, was %d", len(data), len(raw))
	}
	if _, err := os.Stat(logPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rejected open left a temporary file: %v", err)
	}
}

// TestPersistRejectsPreWindowBoundedRecord: a record a bounded replica
// logged before tags carried their window has the bounded flag byte 0x01
// where the window now is, which reads as window -1. The record passes its
// CRC but does not decode, so the log is ErrLogCorrupt; there is no upgrade
// path. The hex is such a record: register "x", label 4, value "v".
func TestPersistRejectsPreWindowBoundedRecord(t *testing.T) {
	frame, err := hex.DecodeString("0000000ad2f2ec3b01780100000108010176")
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "bounded.wal")
	if err := os.WriteFile(logPath, append([]byte(persistMagic), frame...), 0o644); err != nil {
		t.Fatal(err)
	}
	net := netsim.New(netsim.Config{Seed: 77})
	defer net.Close()
	if r, err := NewPersistentReplica(0, net.Node(0), logPath); !errors.Is(err, ErrLogCorrupt) {
		if r != nil {
			r.Stop()
		}
		t.Fatalf("open of a pre-window bounded record: err = %v, want ErrLogCorrupt", err)
	}
}

// TestPersistTruncatesTornTailBeforeAppend pins the tail repair: after a
// torn write, the reopened log appends on a clean boundary, so records
// logged after the recovery survive the next replay (pre-repair, they were
// unreachable behind the torn bytes).
func TestPersistTruncatesTornTailBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "torn-append.wal")
	p, _, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := record{reg: "x", tag: Tag{Valid: true}, val: []byte("v1")}
	rec.tag.TS.Seq = 1
	if err := p.appendBatch([]record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 50, 9, 9, 9, 9, 1, 2}); err != nil { // torn record
		t.Fatal(err)
	}
	f.Close()

	p2, recs, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
	rec2 := record{reg: "x", tag: Tag{Valid: true}, val: []byte("v2")}
	rec2.tag.TS.Seq = 2
	if err := p2.appendBatch([]record{rec2}); err != nil {
		t.Fatal(err)
	}
	if err := p2.close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err = openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[1].val) != "v2" {
		t.Fatalf("post-repair replay: %d records", len(recs))
	}
}

// TestPersistGroupCommitTornBatchReplaysPrefix: a crash in the middle of a
// group commit's multi-record append must behave like a crash between
// single appends — the records fully on disk replay, the torn one is
// truncated away, and the log stays appendable. This is what makes the
// replica's install-after-fsync ordering sufficient: a batch that never
// finished its fsync was never installed or acked, so replaying its prefix
// only resurrects unacknowledged (harmless, adopt-if-newer) records.
func TestPersistGroupCommitTornBatchReplaysPrefix(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "batch.wal")
	p, _, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	var recs []record
	for i := 1; i <= 4; i++ {
		rec := record{reg: "x", tag: Tag{Valid: true}, val: []byte(fmt.Sprintf("v%d", i))}
		rec.tag.TS.Seq = int64(i)
		recs = append(recs, rec)
	}
	if err := p.appendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := p.syncs.Load(); got != 1 {
		t.Fatalf("batch append issued %d fsyncs, want 1", got)
	}
	if p.recordCount() != 4 {
		t.Fatalf("recordCount = %d, want 4", p.recordCount())
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-batch: the last record's tail never reached the disk.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	p2, replayed, err := openPersister(logPath, true)
	if err != nil {
		t.Fatalf("torn batch tail must recover, got %v", err)
	}
	if len(replayed) != 3 {
		t.Fatalf("replayed %d records, want the 3-record prefix", len(replayed))
	}
	for i, rec := range replayed {
		if want := fmt.Sprintf("v%d", i+1); string(rec.val) != want {
			t.Fatalf("record %d = %q, want %q", i, rec.val, want)
		}
	}
	// The repaired log keeps working: another batch lands on the clean
	// boundary and the whole history replays.
	rec5 := record{reg: "x", tag: Tag{Valid: true}, val: []byte("v5")}
	rec5.tag.TS.Seq = 5
	if err := p2.appendBatch([]record{rec5}); err != nil {
		t.Fatal(err)
	}
	if err := p2.close(); err != nil {
		t.Fatal(err)
	}
	_, again, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 4 || string(again[3].val) != "v5" {
		t.Fatalf("post-repair batch append: %d records", len(again))
	}
}

// TestCompactLogShrinksOnDemand covers the graceful-shutdown entry point.
func TestCompactLogShrinksOnDemand(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ondemand.wal")
	net := netsim.New(netsim.Config{Seed: 78})
	defer net.Close()
	r, err := NewPersistentReplica(0, net.Node(0), logPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		rec := record{reg: "x", tag: Tag{Valid: true}, val: []byte(fmt.Sprintf("v%d", i))}
		rec.tag.TS.Seq = int64(i)
		if err := r.persist.appendBatch([]record{rec}); err != nil {
			t.Fatal(err)
		}
		r.regs["x"] = regEntry{tag: rec.tag, val: rec.val}
	}
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CompactLog(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("CompactLog did not shrink: %d -> %d", before.Size(), after.Size())
	}
	r.Stop()

	// Non-persistent replicas: no-op.
	plain := NewReplica(1, net.Node(1))
	if err := plain.CompactLog(); err != nil {
		t.Fatalf("CompactLog on plain replica: %v", err)
	}
	plain.Stop()
}

// TestCompactionDoesNotBlockQueries: a log rewrite in flight — stalled here
// on the persister's own lock, standing in for a slow disk — excludes
// commits but must not hold the state mutex: reads keep being answered.
func TestCompactionDoesNotBlockQueries(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 79})
	defer net.Close()
	r, err := NewPersistentReplica(0, net.Node(0), filepath.Join(t.TempDir(), "stall.wal"))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	cli, err := NewClient(100, net.Node(100), []types.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := shortCtx(t)
	mustWrite(t, ctx, cli, "x", "v")

	r.persist.mu.Lock() // the disk stalls
	compacted := make(chan error, 1)
	go func() { compacted <- r.CompactLog() }()
	waitFor(t, func() bool { // until the compaction owns the commit path
		if r.commitMu.TryLock() {
			r.commitMu.Unlock()
			return false
		}
		return true
	})
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if v, err := cli.Read(rctx, "x"); err != nil || string(v) != "v" {
		t.Errorf("read during a stalled compaction: %q, %v", v, err)
	}
	r.persist.mu.Unlock()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
}

func TestPersistRecordRoundTrip(t *testing.T) {
	rec := record{
		reg: "registers/42",
		tag: Tag{Valid: true, Window: 8, Label: 17},
		val: []byte{0xDE, 0xAD},
	}
	rec.tag.TS.Seq = 9
	rec.tag.TS.Writer = 3

	enc := encodeRecord(nil, rec)
	got, n, err := decodeRecord(enc[8:])
	if err != nil {
		t.Fatal(err)
	}
	if got.reg != rec.reg || got.tag != rec.tag || string(got.val) != string(rec.val) || n != len(enc)-8 {
		t.Fatalf("round trip: %+v (%d bytes) vs %+v (%d)", got, n, rec, len(enc)-8)
	}
}

// TestPersistReplayKeepsEveryValue: a record's value is decoded as a view
// of the frame it was read into, and replay reads every frame into one
// reused buffer. Every replayed value must still be its own: records of
// distinct values, the later ones shorter, replay intact.
func TestPersistReplayKeepsEveryValue(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "replay.wal")
	p, _, err := openPersister(logPath, false)
	if err != nil {
		t.Fatal(err)
	}
	var want []record
	for i, v := range []string{"the first and longest value", "second value", "third", ""} {
		want = append(want, record{reg: fmt.Sprintf("r%d", i), tag: Tag{Valid: true, TS: tsOf(int64(i + 1))}, val: []byte(v)})
	}
	if err := p.appendBatch(want[:2]); err != nil {
		t.Fatal(err)
	}
	if err := p.appendBatch(want[2:]); err != nil {
		t.Fatal(err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := loadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRecords(recs, want); err != nil {
		t.Fatal(err)
	}
	if recs[3].val == nil {
		t.Fatal("an empty value replayed as nil")
	}
}

// TestPersistZeroTailReusesScratch: a batch that crosses the end of the
// zero tail carries the next stretch of zeros in the batch scratch itself,
// so once the scratch has grown, extending the tail allocates nothing — and
// the zeros it writes are zeros even where a longer batch was encoded
// before.
func TestPersistZeroTailReusesScratch(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "scratch.wal")
	p, _, err := openPersister(logPath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	long := []record{{reg: "x", tag: Tag{Valid: true, TS: tsOf(1)}, val: bytes.Repeat([]byte{0x5A}, 4<<10)}}
	short := []record{{reg: "x", tag: Tag{Valid: true, TS: tsOf(2)}, val: []byte{0x5A}}}
	extend := func(batch []record) {
		p.zeroed = p.off // the batch crosses the end of the zero tail
		if err := p.appendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	p.grow = persistGrowMax
	extend(long) // sizes the scratch
	if allocs := testing.AllocsPerRun(3, func() { extend(short) }); allocs != 0 {
		t.Fatalf("extending the zero tail allocated %.1f times per append, want 0", allocs)
	}
	tail := make([]byte, p.zeroed-p.off)
	if _, err := p.f.ReadAt(tail, p.off); err != nil {
		t.Fatal(err)
	}
	if !allZero(tail) {
		t.Fatal("the zero tail written from the reused scratch is not all zero")
	}
}

// TestCommitBatchReusesScratch: a group commit of one update keeps its
// batch scratch on the stack and reuses the log's encoding buffer, so the
// one allocation left is the ack's encoding — with the log and without.
func TestCommitBatchReusesScratch(t *testing.T) {
	for _, persistent := range []bool{false, true} {
		t.Run(fmt.Sprintf("persistent=%v", persistent), func(t *testing.T) {
			r := NewReplica(0, discardEndpoint{})
			if persistent {
				var err error
				if r, err = NewPersistentReplica(0, discardEndpoint{}, filepath.Join(t.TempDir(), "commit.wal")); err != nil {
					t.Fatal(err)
				}
			}
			defer r.Stop()
			batch := []inboundWrite{{from: 100, m: message{Kind: KindWrite, Reg: "x", Val: bytes.Repeat([]byte{0x5A}, 128)}}}
			var seq int64
			commit := func() {
				seq++
				batch[0].m.Tag = Tag{Valid: true, TS: tsOf(seq)}
				r.commitBatch(batch)
			}
			commit() // sizes the scratch and zero-fills the log's tail
			if allocs := testing.AllocsPerRun(100, commit); allocs > 1 {
				t.Fatalf("a group commit of one update allocated %.1f times, want at most 1 (the ack)", allocs)
			}
			if m := r.ReplicaMetrics(); m.Adoptions != seq {
				t.Fatalf("%d of %d commits adopted", m.Adoptions, seq)
			}
		})
	}
}

// discardEndpoint drops every message sent through it and delivers none.
type discardEndpoint struct{}

func (discardEndpoint) ID() types.NodeID                { return 0 }
func (discardEndpoint) Send(types.NodeID, []byte) error { return nil }
func (discardEndpoint) Recv() <-chan transport.Message  { return nil }
func (discardEndpoint) Close() error                    { return nil }

func TestPersistCompaction(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "compact.wal")
	p, _, err := openPersister(logPath, false)
	if err != nil {
		t.Fatal(err)
	}
	// Many updates to the same register.
	for i := 1; i <= 100; i++ {
		rec := record{reg: "x", tag: Tag{Valid: true}, val: []byte(fmt.Sprintf("v%d", i))}
		rec.tag.TS.Seq = int64(i)
		if err := p.appendBatch([]record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	state := []record{{reg: "x", tag: Tag{Valid: true, TS: tsOf(100)}, val: []byte("v100")}}
	if err := p.compact(state); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}

	// The compacted log replays to the final state.
	net := netsim.New(netsim.Config{Seed: 73})
	defer net.Close()
	r, err := NewPersistentReplica(0, net.Node(0), logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	tag, val := r.State("x")
	if tag.TS.Seq != 100 || string(val) != "v100" {
		t.Fatalf("after compaction: %q@%d", val, tag.TS.Seq)
	}
}

func TestPersistentClusterEndToEndRestart(t *testing.T) {
	// Full scenario: 3 persistent replicas; write; stop replica 2; write
	// more; restart replica 2 from its log; it participates again with its
	// recovered (stale) state and catches up via the normal protocol.
	dir := t.TempDir()
	net := netsim.New(netsim.Config{Seed: 74})
	defer net.Close()

	mkReplica := func(i int, gen int) *Replica {
		// Each generation needs a fresh endpoint (the old one is closed).
		id := types.NodeID(i)
		ep := net.Node(id)
		if gen > 0 {
			net.Recover(id)
			ep = net.Reattach(id)
		}
		r, err := NewPersistentReplica(id, ep, filepath.Join(dir, fmt.Sprintf("r%d.wal", i)))
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		return r
	}
	replicas := make([]*Replica, 3)
	for i := range replicas {
		replicas[i] = mkReplica(i, 0)
	}
	cli, err := NewClient(1000, net.Node(1000), []types.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := shortCtx(t)

	mustWrite(t, ctx, cli, "x", "gen0")
	waitFor(t, func() bool {
		tag, _ := replicas[2].State("x")
		return tag.Valid
	})

	// Replica 2 "crashes" (process exit): stop it and drop its traffic.
	replicas[2].Stop()
	net.Crash(2)
	mustWrite(t, ctx, cli, "x", "gen1-while-down")

	// Restart from the log.
	replicas[2] = mkReplica(2, 1)
	defer replicas[0].Stop()
	defer replicas[1].Stop()
	defer replicas[2].Stop()

	tag, val := replicas[2].State("x")
	if !tag.Valid || string(val) != "gen0" {
		t.Fatalf("recovered state %q, want gen0", val)
	}

	// Crash a different replica: the restarted one is now load-bearing, and
	// the cluster still serves the latest value.
	net.Crash(0)
	if got := mustRead(t, ctx, cli, "x"); got != "gen1-while-down" {
		t.Fatalf("read %q, want gen1-while-down", got)
	}
}

func tsOf(seq int64) timestamp.TS {
	return timestamp.TS{Seq: seq}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPersistCommitsDoNotMoveFileSize pins what makes a commit cheap: after
// the first append has zero-filled ahead, appends overwrite zeros and leave
// the file's size — filesystem metadata, journalled on every change — alone,
// and a graceful close cuts the zeros off again.
func TestPersistCommitsDoNotMoveFileSize(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "size.wal")
	p, _, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		t.Helper()
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if got := size(); got != int64(len(persistMagic)) {
		t.Fatalf("fresh log is %d bytes: nothing may be zero-filled at open", got)
	}
	want := []byte(persistMagic)
	var sizes []int64
	for seq := int64(1); seq <= 20; seq++ {
		if err := p.appendBatch([]record{xrec(seq)}); err != nil {
			t.Fatal(err)
		}
		want = encodeRecord(want, xrec(seq))
		sizes = append(sizes, size())
	}
	if first := sizes[0]; first < persistGrowMin || first != sizes[len(sizes)-1] {
		t.Fatalf("file sizes after each append: %v, want one constant size past %d", sizes, persistGrowMin)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("closed log is %d bytes, want exactly magic + 20 framed records (%d)", len(got), len(want))
	}
}

// TestPersistZeroTailGrowsGeometrically: a batch that crosses the end of
// the zero tail extends it in its own write, by twice as much each time up
// to the cap, and everything replays across the extensions.
func TestPersistZeroTailGrowsGeometrically(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "grow.wal")
	p, _, err := openPersister(logPath, false)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0x5A}, 100<<10)
	var grows []int64
	for i := 1; len(grows) < 6; i++ {
		before := p.zeroed
		rec := record{reg: "x", tag: Tag{Valid: true, TS: tsOf(int64(i))}, val: val}
		if err := p.appendBatch([]record{rec}); err != nil {
			t.Fatal(err)
		}
		if p.zeroed != before {
			grows = append(grows, p.zeroed-p.off)
		}
		if st, err := os.Stat(logPath); err != nil || st.Size() != p.zeroed {
			t.Fatalf("append %d: file is %d bytes (%v), persister thinks %d", i, st.Size(), err, p.zeroed)
		}
	}
	want := []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 1 << 20}
	if fmt.Sprint(grows) != fmt.Sprint(want) {
		t.Fatalf("zero tail after each extension: %v, want %v", grows, want)
	}
	n := p.recordCount()
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := openPersister(logPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n || !bytes.Equal(recs[n-1].val, val) {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
}

// TestPersistCrashPoints enumerates what a crash can leave of a group
// commit that was written but not yet synced. The batch lands on zeros and
// the disk persists whole sectors in any order, so the candidates are: the
// file ending at any byte boundary of the batch, any one sector still zero,
// and the sectors arriving first-to-last or last-to-first.
// From every one of them the log must open, replay every record of every
// synced batch, replay of the unsynced batch only records that arrived
// whole and only in order, and take and replay an append after the repair.
// The other direction: damage inside a synced batch is never a tear — any
// byte of it, flipped, must fail the open with ErrLogCorrupt.
func TestPersistCrashPoints(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "crash.wal")
	seq := int64(0)
	mkBatch := func(valLens ...int) []record {
		var batch []record
		for _, n := range valLens {
			seq++
			// No zero byte in a value, and none that the flip below turns
			// into one: the torn-write rule keys on all-zero pieces.
			val := bytes.Repeat([]byte{byte(0x10 + seq)}, n)
			batch = append(batch, record{reg: fmt.Sprintf("reg-%d", seq), tag: Tag{Valid: true, TS: tsOf(seq)}, val: val})
		}
		return batch
	}
	syncedBatches := [][]record{mkBatch(40, 300), mkBatch(700), mkBatch(90, 90, 200)}
	final := mkBatch(450, 30, 500, 200) // ~1.3 KB: touches four sectors

	// Build the log through the persister, and the same bytes by hand to
	// know where every record lies.
	p, _, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	base := []byte(persistMagic)
	var synced []record
	var syncedFrames [][2]int // byte range of every synced record
	for _, batch := range syncedBatches {
		if err := p.appendBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, rec := range batch {
			start := len(base)
			base = encodeRecord(base, rec)
			if tornOverZeros(int64(start), base[start:]) {
				t.Fatalf("test log: intact record %q has an all-zero sector piece", rec.reg)
			}
			syncedFrames = append(syncedFrames, [2]int{start, len(base)})
			synced = append(synced, rec)
		}
	}
	if err := p.appendBatch(final); err != nil {
		t.Fatal(err)
	}
	off := len(base)
	var finalBytes []byte
	var finalEnds []int // end of each final record within finalBytes
	for _, rec := range final {
		finalBytes = encodeRecord(finalBytes, rec)
		finalEnds = append(finalEnds, len(finalBytes))
	}
	onDisk, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	whole := append(append([]byte{}, base...), finalBytes...)
	if !bytes.HasPrefix(onDisk, whole) || !allZero(onDisk[len(whole):]) || len(onDisk) == len(whole) {
		t.Fatalf("open log is not magic + records + a zero tail (%d bytes, %d of records)", len(onDisk), len(whole))
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	firstSector, lastSector := off/sectorSize, (off+len(finalBytes)-1)/sectorSize
	if lastSector-firstSector < 2 {
		t.Fatalf("final batch spans sectors %d..%d, want more than two", firstSector, lastSector)
	}
	zeroPad := make([]byte, 2*sectorSize)
	// The images go through one descriptor: truncating the file to nothing
	// and writing it afresh a few thousand times is what takes a second.
	imgFile, err := os.OpenFile(logPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer imgFile.Close()
	writeImage := func(img []byte) {
		t.Helper()
		if _, err := imgFile.WriteAt(img, 0); err != nil {
			t.Fatal(err)
		}
		if err := imgFile.Truncate(int64(len(img))); err != nil {
			t.Fatal(err)
		}
	}

	// survives: the log left by a crash in which only the bytes of the
	// final batch selected by arrived reached the disk, over zeros.
	survives := func(name string, arrived func(i int) bool, fileEnd int, pad []byte) {
		t.Helper()
		img := append([]byte{}, base...)
		intact := 0 // leading final records with every byte on disk as written
		for i, b := range finalBytes[:fileEnd] {
			if !arrived(i) {
				b = 0
			}
			img = append(img, b)
		}
		for intact < len(final) && finalEnds[intact] <= fileEnd && bytes.Equal(img[off:off+finalEnds[intact]], finalBytes[:finalEnds[intact]]) {
			intact++
		}
		writeImage(append(img, pad...))
		p, recs, err := openPersister(logPath, false)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		want := append(append([]record{}, synced...), final[:intact]...)
		if err := sameRecords(recs, want); err != nil {
			t.Fatalf("%s: replay (%d synced + %d of the final batch expected): %v", name, len(synced), intact, err)
		}
		marker := record{reg: "after-repair", tag: Tag{Valid: true, TS: tsOf(1000)}, val: []byte("m")}
		if err := p.appendBatch([]record{marker}); err != nil {
			t.Fatalf("%s: append after repair: %v", name, err)
		}
		if err := p.close(); err != nil {
			t.Fatal(err)
		}
		p, recs, err = openPersister(logPath, false)
		if err != nil {
			t.Fatalf("%s: reopen after repair: %v", name, err)
		}
		if err := sameRecords(recs, append(want, marker)); err != nil {
			t.Fatalf("%s: replay after repair: %v", name, err)
		}
		if err := p.close(); err != nil {
			t.Fatal(err)
		}
	}
	sectorOf := func(i int) int { return (off + i) / sectorSize }

	for cut := 0; cut <= len(finalBytes); cut++ {
		survives(fmt.Sprintf("file ends %d bytes into the batch", cut),
			func(int) bool { return true }, cut, nil)
	}
	for s := firstSector; s <= lastSector+1; s++ {
		survives(fmt.Sprintf("sector %d still zero", s),
			func(i int) bool { return sectorOf(i) != s }, len(finalBytes), zeroPad)
		survives(fmt.Sprintf("sectors before %d arrived, the rest still zero", s),
			func(i int) bool { return sectorOf(i) < s }, len(finalBytes), zeroPad)
		survives(fmt.Sprintf("sectors from %d on arrived, the ones before still zero", s),
			func(i int) bool { return sectorOf(i) >= s }, len(finalBytes), zeroPad)
	}

	// Bit-rot in acknowledged state, with the crash residue of the worst
	// case behind it (a final batch that arrived whole, then zeros).
	img := append(append([]byte{}, whole...), zeroPad...)
	for _, span := range syncedFrames {
		for i := span[0]; i < span[1]; i++ {
			img[i] ^= 0x80
			writeImage(img)
			if _, _, err := openPersister(logPath, false); !errors.Is(err, ErrLogCorrupt) {
				t.Fatalf("byte %d of a synced batch flipped: open = %v, want ErrLogCorrupt", i, err)
			}
			img[i] ^= 0x80
		}
	}
}

// xrec is the record of register "x" taking value "v<seq>" at sequence seq.
func xrec(seq int64) record {
	return record{reg: "x", tag: Tag{Valid: true, TS: tsOf(seq)}, val: []byte(fmt.Sprintf("v%d", seq))}
}

func sameRecords(got, want []record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].reg != want[i].reg || got[i].tag != want[i].tag || !bytes.Equal(got[i].val, want[i].val) {
			return fmt.Errorf("record %d is %q@%d = %q, want %q@%d = %q", i, got[i].reg, got[i].tag.TS.Seq, got[i].val, want[i].reg, want[i].tag.TS.Seq, want[i].val)
		}
	}
	return nil
}

// TestCompactFailureKeepsOldLog: a compaction that cannot write its new log
// leaves the old one in use and untouched — appends keep landing where the
// name points — and one that succeeds appends to the very file it renamed
// into place, through the descriptor it wrote it with.
func TestCompactFailureKeepsOldLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "compact-fail.wal")
	p, _, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.appendBatch([]record{xrec(1), xrec(2)}); err != nil {
		t.Fatal(err)
	}

	// A directory squatting on the temporary name fails the rewrite.
	if err := os.Mkdir(logPath+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.compact([]record{xrec(2)}); err == nil {
		t.Fatal("compaction over an unwritable temporary file reported success")
	}
	if p.recordCount() != 2 {
		t.Fatalf("failed compaction reset the record count to %d", p.recordCount())
	}
	if err := p.appendBatch([]record{xrec(3)}); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := loadLog(logPath); err != nil || sameRecords(recs, []record{xrec(1), xrec(2), xrec(3)}) != nil {
		t.Fatalf("after a failed compaction the log at the path holds %d records (%v), want all 3", len(recs), err)
	}

	if err := os.Remove(logPath + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := p.compact([]record{xrec(3)}); err != nil {
		t.Fatal(err)
	}
	if err := p.appendBatch([]record{xrec(4)}); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := loadLog(logPath); err != nil || sameRecords(recs, []record{xrec(3), xrec(4)}) != nil {
		t.Fatalf("after compaction the log at the path holds %d records (%v), want the snapshot and the append", len(recs), err)
	}
	if _, err := os.Stat(logPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistAppendFailureIsSticky: once a write (or sync) has failed, what
// lies past the append offset is unknown, so the log refuses every later
// append — the replica goes silent, as after a crash — instead of writing a
// shorter batch over the remains; the next open replays what was synced.
func TestPersistAppendFailureIsSticky(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "sticky.wal")
	p, _, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.appendBatch([]record{xrec(1)}); err != nil {
		t.Fatal(err)
	}
	good := p.f
	readOnly, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	p.f = readOnly // the disk fails: writes bounce
	if err := p.appendBatch([]record{xrec(2)}); err == nil {
		t.Fatal("append through a read-only descriptor reported success")
	}
	p.f = good // the disk is back
	readOnly.Close()
	if err := p.appendBatch([]record{xrec(3)}); err == nil {
		t.Fatal("append after a failed append reported success")
	}
	if p.recordCount() != 1 {
		t.Fatalf("recordCount = %d after two failed appends, want 1", p.recordCount())
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := openPersister(logPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRecords(recs, []record{xrec(1)}); err != nil {
		t.Fatalf("replay after failed appends: %v", err)
	}
}
