package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// base is an arbitrary fixed wall time for synthetic spans.
var base = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// syntheticSpans builds one fully-traced write with a known critical path —
// closer replica 2, 1ms of fsync inside a 3ms handler, quorum closed at 6ms
// into a 10ms op — plus a small read, so every analysis stage has input.
func syntheticSpans() []obs.Span {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	return []obs.Span{
		{Trace: 1, ID: 100, Kind: "write", Reg: "x", Node: 9000, Start: base, Dur: ms(10)},
		{Trace: 1, ID: 101, Parent: 100, Kind: "phase", Phase: "update", Reg: "x", Node: 9000,
			Start: base, Dur: ms(6), Targets: 3, Quorum: 2, FirstReply: ms(4), LastReply: ms(6),
			ReplicaRTT: map[int64]time.Duration{1: ms(4), 2: ms(6)}},
		{Trace: 1, ID: 102, Parent: 101, Kind: "net-send", Node: 9000, Peer: 2,
			Start: base, Dur: ms(1)},
		{Trace: 1, ID: 103, Parent: 101, Kind: "handle", Phase: "update", Reg: "x", Node: 2,
			Start: base.Add(ms(2)), Dur: ms(3)},
		{Trace: 1, ID: 104, Parent: 103, Kind: "wal-append", Reg: "x", Node: 2,
			Start: base.Add(ms(3)), Dur: ms(1)},
		{Trace: 1, ID: 105, Parent: 101, Kind: "handle", Phase: "update", Reg: "x", Node: 1,
			Start: base.Add(ms(1)), Dur: ms(2)},
		{Trace: 1, ID: 106, Parent: 103, Kind: "net-recv", Node: 9000, Peer: 2,
			Start: base.Add(ms(5)), Dur: ms(1)},
		// Replica 3 handled the request but its reply never made the quorum:
		// it must still appear in the attribution table (answered 0).
		{Trace: 1, ID: 107, Parent: 101, Kind: "handle", Phase: "update", Reg: "x", Node: 3,
			Start: base.Add(ms(7)), Dur: ms(1)},

		{Trace: 2, ID: 200, Kind: "read", Reg: "x", Node: 9001, Start: base.Add(ms(20)), Dur: ms(2)},
		{Trace: 2, ID: 201, Parent: 200, Kind: "phase", Phase: "query", Reg: "x", Node: 9001,
			Start: base.Add(ms(20)), Dur: ms(2), Targets: 3, Quorum: 2, LastReply: ms(2),
			ReplicaRTT: map[int64]time.Duration{1: ms(1), 2: ms(2)}},
	}
}

func TestDecompose(t *testing.T) {
	traces := obs.AssembleTraces(syntheticSpans())
	var write *obs.TraceNode
	for _, tr := range traces {
		if tr.Root != nil && tr.Root.Span.Kind == "write" {
			write = tr.Root
		}
	}
	if write == nil {
		t.Fatal("write trace did not assemble")
	}
	op := decompose(write)
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	if op.closer != 2 {
		t.Fatalf("closer = %d, want 2", op.closer)
	}
	want := breakdown{Client: ms(4), Network: ms(3), Handler: ms(2), Fsync: ms(1)}
	if op.bd != want {
		t.Fatalf("breakdown %+v, want %+v", op.bd, want)
	}
	if op.bd.sum() != op.span.Dur {
		t.Fatalf("components sum to %v, op took %v", op.bd.sum(), op.span.Dur)
	}
	if op.slowPhase.Phase != "update" {
		t.Fatalf("slowest phase %q, want update", op.slowPhase.Phase)
	}
}

func TestRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j := obs.NewJSONL(f)
	for _, s := range syntheticSpans() {
		j.Emit(s)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := traceReport([]string{path}, 2, 0.95, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"stitch: 6/6 remote spans reach an operation (100.0%)",
		"critical path across 2 ops",
		"p99 operation: write(x) client=9000 10.00ms",
		"slowest phase: update (quorum 2/3 closed at 6.00ms)",
		"straggler: replica 2 closed this quorum",
		"replica quorum participation (2 phases)",
		"wal-append @2",
		"phase update [q=2/3]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The quorum-missing replica 3 gets a row: answered 0, closer 0, missed 2.
	if !regexp.MustCompile(`(?m)^  3\s+0\s+0\s+2\s`).MatchString(out) {
		t.Errorf("replica 3 (handled but never counted) missing from attribution table:\n%s", out)
	}
}

func TestRunMinStitchFails(t *testing.T) {
	spans := append(syntheticSpans(),
		// A remote span whose parent never arrived: unstitchable.
		obs.Span{Trace: 9, ID: 900, Parent: 899, Kind: "handle", Node: 1, Start: base, Dur: time.Millisecond})
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j := obs.NewJSONL(f)
	for _, s := range spans {
		j.Emit(s)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := traceReport([]string{path}, 1, 1.0, &buf); err == nil {
		t.Fatalf("run accepted stitch ratio below 1.0:\n%s", buf.String())
	}
}

func TestRunEmptyInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := traceReport([]string{path}, 1, 0, &buf)
	if err == nil {
		t.Fatal("empty input accepted")
	}
	// The diagnostic must name the offending input and point at the likely
	// cause, so a zero-span nemesis or smoke run fails loudly and legibly.
	for _, want := range []string{path, "-trace-out"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("zero-span diagnostic %q missing %q", err, want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("zero-span input still rendered a report:\n%s", buf.String())
	}
}
