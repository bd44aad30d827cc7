package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// span builders for tree tests.
func opSpan(trace, id uint64, kind string, at int64) Span {
	return Span{Trace: trace, ID: id, Kind: kind, Reg: "x", Start: time.Unix(0, at)}
}
func childSpan(trace, id, parent uint64, kind string, at int64) Span {
	return Span{Trace: trace, ID: id, Parent: parent, Kind: kind, Reg: "x", Start: time.Unix(0, at)}
}

func TestAssembleTraces(t *testing.T) {
	spans := []Span{
		// Trace 1: read → phase → handle → wal-append. Arrival order is
		// scrambled on purpose: assembly must not depend on it.
		childSpan(1, 12, 11, "handle", 30),
		opSpan(1, 10, "read", 10),
		childSpan(1, 13, 12, "wal-append", 40),
		childSpan(1, 11, 10, "phase", 20),
		// Trace 2: a handle whose phase span was lost → orphan.
		opSpan(2, 20, "write", 100),
		childSpan(2, 22, 99, "handle", 120),
		// No trace id: ignored.
		{ID: 77, Kind: "phase", Start: time.Unix(0, 5)},
	}
	traces := AssembleTraces(spans)
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	t1 := traces[0]
	if t1.ID != 1 || t1.Root == nil || t1.Root.Span.ID != 10 {
		t.Fatalf("trace 1 root = %+v", t1.Root)
	}
	if len(t1.Orphans) != 0 {
		t.Fatalf("trace 1 has %d orphans, want 0", len(t1.Orphans))
	}
	// Chain shape: 10 → 11 → 12 → 13.
	n := t1.Root
	for _, want := range []uint64{11, 12, 13} {
		if len(n.Children) != 1 || n.Children[0].Span.ID != want {
			t.Fatalf("under span %d want single child %d, got %+v", n.Span.ID, want, n.Children)
		}
		n = n.Children[0]
	}
	t2 := traces[1]
	if t2.Root == nil || t2.Root.Span.ID != 20 {
		t.Fatalf("trace 2 root = %+v", t2.Root)
	}
	if len(t2.Orphans) != 1 || t2.Orphans[0].Span.ID != 22 {
		t.Fatalf("trace 2 orphans = %+v", t2.Orphans)
	}
}

func TestStitch(t *testing.T) {
	spans := []Span{
		opSpan(1, 10, "read", 0),
		childSpan(1, 11, 10, "phase", 1),
		childSpan(1, 12, 11, "handle", 2),     // stitched via phase
		childSpan(1, 13, 12, "wal-append", 3), // stitched via handle
		childSpan(1, 14, 11, "net-send", 1),   // stitched
		childSpan(2, 20, 999, "handle", 5),    // parent lost: unstitched
		childSpan(2, 21, 20, "net-recv", 6),   // chain dead-ends at 20: unstitched
	}
	st := Stitch(spans)
	if st.Total != 5 {
		t.Fatalf("Total = %d, want 5", st.Total)
	}
	if st.Stitched != 3 {
		t.Fatalf("Stitched = %d, want 3", st.Stitched)
	}
	if st.Ops != 1 || st.Traces != 2 {
		t.Fatalf("Ops=%d Traces=%d, want 1 and 2", st.Ops, st.Traces)
	}
	if r := st.Ratio(); r < 0.59 || r > 0.61 {
		t.Fatalf("Ratio = %v, want 0.6", r)
	}
	if (StitchStats{}).Ratio() != 1 {
		t.Fatal("empty stitch must ratio to 1")
	}
}

// TestStitchCycleTerminates guards the parent walk against corrupted span
// sets whose parent pointers form a loop.
func TestStitchCycleTerminates(t *testing.T) {
	spans := []Span{
		childSpan(1, 1, 2, "handle", 0),
		childSpan(1, 2, 1, "phase", 0),
	}
	st := Stitch(spans)
	if st.Total != 1 || st.Stitched != 0 {
		t.Fatalf("cycle: %+v", st)
	}
}

func TestCollectorBoundAndDrop(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 5; i++ {
		c.Emit(Span{ID: uint64(i + 1), Kind: "phase"})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", c.Dropped())
	}
	got := c.Spans()
	if got[0].ID != 1 || got[2].ID != 3 {
		t.Fatalf("kept wrong spans: %+v", got)
	}
}

func TestCollectorJSONLAndHTTP(t *testing.T) {
	// Round-trip through the JSONL tracer into a collector, then pull the
	// spans back out via GET; the endpoint refuses pushes.
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.Emit(opSpan(9, 90, "write", 1000))
	j.Emit(childSpan(9, 91, 90, "phase", 2000))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	c := NewCollector(0)
	if n, err := c.IngestJSONL(strings.NewReader(sb.String())); err != nil || n != 2 {
		t.Fatalf("ingested %d spans, err %v", n, err)
	}
	if c.Len() != 2 {
		t.Fatalf("collector has %d spans after ingest, want 2", c.Len())
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL, "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || c.Len() != 2 {
		t.Fatalf("POST status %d, %d spans after it; want 405 and 2", resp.StatusCode, c.Len())
	}

	pull, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Body.Close()
	c2 := NewCollector(0)
	n, err := c2.IngestJSONL(pull.Body)
	if err != nil || n != 2 {
		t.Fatalf("pull ingested %d spans, err %v", n, err)
	}
	if got := c2.Spans(); got[0].Trace != 9 || got[1].Parent != 90 {
		t.Fatalf("pulled spans lost fields: %+v", got)
	}

	if _, err := c.IngestJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line must error")
	}
}

// TestCollectorConcurrentEmitIngestDrain hammers one bounded collector from
// every direction at once — in-process Emit, JSONL ingestion, and
// concurrent drains via Spans()/GET — and then checks the books balance:
// every span offered was either retained or counted in Dropped, and the
// store never exceeded its bound. Run under -race this is also the
// collector's data-race acceptance test.
func TestCollectorConcurrentEmitIngestDrain(t *testing.T) {
	const (
		cap       = 500
		emitters  = 4
		ingesters = 2
		perG      = 300
	)
	col := NewCollector(cap)
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	// One JSONL batch every ingester feeds in.
	var batch strings.Builder
	j := NewJSONL(&batch)
	for i := 0; i < perG; i++ {
		j.Emit(childSpan(7, uint64(9000+i), 1, "handle", int64(i)))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				col.Emit(opSpan(uint64(g+1), uint64(g*perG+i+1), "read", int64(i)))
			}
		}(g)
	}
	for p := 0; p < ingesters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := col.IngestJSONL(strings.NewReader(batch.String())); err != nil || n != perG {
				t.Errorf("ingested %d spans, err %v; want %d", n, err, perG)
			}
		}()
	}
	// Concurrent drains while the writers run: copies must be consistent
	// snapshots, never longer than the bound.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(col.Spans()); n > cap {
				t.Errorf("drained %d spans, cap is %d", n, cap)
				return
			}
			resp, err := srv.Client().Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	wg.Wait()
	close(stop)
	readers.Wait()

	const offered = emitters*perG + ingesters*perG
	if got := col.Len() + int(col.Dropped()); got != offered {
		t.Fatalf("kept %d + dropped %d = %d, offered %d", col.Len(), col.Dropped(), got, offered)
	}
	if col.Len() != cap {
		t.Fatalf("retained %d spans, want the full bound %d", col.Len(), cap)
	}
	if col.Dropped() != offered-cap {
		t.Fatalf("dropped = %d, want %d", col.Dropped(), offered-cap)
	}
}
