package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	in := Span{
		ID: 7, Parent: 3, Kind: "phase", Phase: "query", Reg: "x", Node: 42,
		Start: time.Unix(100, 0).UTC(), Dur: 250 * time.Microsecond,
		Targets: 5, Quorum: 3,
		FirstReply: 80 * time.Microsecond, LastReply: 240 * time.Microsecond,
		ReplicaRTT: map[int64]time.Duration{0: 80 * time.Microsecond, 2: 240 * time.Microsecond},
	}
	j.Emit(in)
	j.Emit(Span{ID: 8, Kind: "read", Reg: "x"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var lines int
	var first Span
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d not JSON: %v", lines+1, err)
		}
		if lines == 0 {
			first = s
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d lines, want 2", lines)
	}
	if first.ID != 7 || first.Phase != "query" || first.Quorum != 3 || first.ReplicaRTT[2] != 240*time.Microsecond {
		t.Fatalf("round-trip mismatch: %+v", first)
	}
}

type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("disk full")
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(&errWriter{})
	for i := 0; i < 10_000; i++ { // enough to overflow the bufio buffer
		j.Emit(Span{ID: uint64(i), Reg: "r"})
	}
	if err := j.Close(); err == nil {
		t.Fatal("want sticky write error, got nil")
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewCollector(0), NewCollector(0)
	m := Multi{a, b}
	m.Emit(Span{ID: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("multi fan-out: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestNextIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := NextID()
				if i%2 == 0 {
					id = NewTraceID() // same uniqueness contract
				}
				mu.Lock()
				if id == 0 || seen[id] {
					t.Errorf("duplicate or zero id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
