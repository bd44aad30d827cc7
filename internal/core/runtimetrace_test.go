package core

import (
	"bytes"
	"context"
	rtrace "runtime/trace"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/types"
)

// TestRuntimeTraceTasksAndRegions runs traced operations inside a live
// runtime/trace session and asserts the task and region names (and the
// abd.trace log category) land in the trace stream — the names are stored
// verbatim in the trace's string table, so a byte search is enough without
// depending on the trace parser's API.
func TestRuntimeTraceTasksAndRegions(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1})
	defer net.Close()
	ids := []types.NodeID{0, 1, 2}
	for _, id := range ids {
		r := NewReplica(id, net.Node(id))
		r.Start()
		defer r.Stop()
	}
	cli, err := NewClient(100, net.Node(100), ids)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var buf bytes.Buffer
	if err := rtrace.Start(&buf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if err := cli.Write(ctx, "r", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Read(ctx, "r"); err != nil {
			t.Fatal(err)
		}
	}
	rtrace.Stop()

	out := buf.Bytes()
	if len(out) == 0 {
		t.Fatal("empty execution trace")
	}
	for _, want := range []string{"abd.read", "abd.write", "abd.phase.query"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("trace stream missing %q", want)
		}
	}
}

// TestRuntimeTraceDisabledIsInert checks the bracketing is inert without a
// trace session: operations run normally and no task machinery engages.
func TestRuntimeTraceDisabledIsInert(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 2})
	defer net.Close()
	ids := []types.NodeID{0, 1, 2}
	for _, id := range ids {
		r := NewReplica(id, net.Node(id))
		r.Start()
		defer r.Stop()
	}
	cli, err := NewClient(100, net.Node(100), ids)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cli.Write(ctx, "r", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Read(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v" {
		t.Fatalf("read %q, want v", got)
	}
}

func TestEncodeDecodeProfHelpers(t *testing.T) {
	payload := EncodeWriteRequest(7, "reg", 42, 3, []byte("value"))
	kind, err := DecodeKind(payload)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindWrite {
		t.Fatalf("kind = %v, want KindWrite", kind)
	}
	// A flipped byte must fail the CRC open.
	payload[len(payload)-5] ^= 0xff
	if _, err := DecodeKind(payload); err == nil {
		t.Fatal("corrupted payload decoded cleanly")
	}
}
