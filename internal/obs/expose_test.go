package obs

import (
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampleLine matches a Prometheus text-format sample.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+(Inf)?$`)

func TestWriterFormat(t *testing.T) {
	w := NewWriter()
	w.Counter("abd_reads_total", "completed reads", Labels{"node": "0"}, 17)
	w.Counter("abd_reads_total", "completed reads", Labels{"node": "1"}, 5)
	w.Gauge("abd_registers", "stored registers", nil, 3)

	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	w.Histogram("abd_read_latency_seconds", "read latency", Labels{"node": "0"}, h.Snapshot())

	out := w.String()
	if c := strings.Count(out, "# TYPE abd_reads_total counter"); c != 1 {
		t.Errorf("TYPE header emitted %d times, want once:\n%s", c, out)
	}
	if !strings.Contains(out, `abd_reads_total{node="0"} 17`) {
		t.Errorf("missing counter sample:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE abd_read_latency_seconds histogram") {
		t.Errorf("missing histogram TYPE:\n%s", out)
	}
	if !strings.Contains(out, `abd_read_latency_seconds_bucket{le="+Inf",node="0"} 100`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "abd_read_latency_seconds_count") {
		t.Errorf("missing _count:\n%s", out)
	}

	// Every non-comment line must parse as a sample.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("unparseable sample line: %q", line)
		}
	}
}

// TestWriterGroupsInterleavedFamilies writes two families alternately for
// two label sets — the way a gatherer loops over endpoints — and requires
// each family's samples to come out as one group under its headers.
func TestWriterGroupsInterleavedFamilies(t *testing.T) {
	w := NewWriter()
	for _, node := range []string{"0", "1"} {
		w.Counter("a_total", "a", Labels{"node": node}, 1)
		w.Gauge("b", "b", Labels{"node": node}, 2)
	}
	want := "# HELP a_total a\n# TYPE a_total counter\n" +
		"a_total{node=\"0\"} 1\na_total{node=\"1\"} 1\n" +
		"# HELP b b\n# TYPE b gauge\n" +
		"b{node=\"0\"} 2\nb{node=\"1\"} 2\n"
	if got := w.String(); got != want {
		t.Fatalf("families not grouped:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramBucketsMonotone(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(i) * 37 * time.Microsecond)
	}
	w := NewWriter()
	w.Histogram("x_seconds", "x", nil, h.Snapshot())

	prev := int64(-1)
	for _, line := range strings.Split(w.String(), "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not monotone: %d after %d in %q", v, prev, line)
		}
		prev = v
	}
}

func TestExposeEndpoints(t *testing.T) {
	reads := int64(0)
	srv := httptest.NewServer(ExposeFull(func(w *Writer) {
		w.Counter("abd_reads_total", "reads", nil, reads)
	}, nil))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "abd_reads_total 0") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	reads = 42 // the gatherer reads live state on each scrape
	if _, body := get("/metrics"); !strings.Contains(body, "abd_reads_total 42") {
		t.Fatalf("scrape not live: %q", body)
	}
}
