package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Labels name one metric series. Serialization sorts keys, so equal maps
// always render identically.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, l[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// renderWith appends le to the label set without mutating it.
func (l Labels) renderWith(extraKey, extraVal string) string {
	merged := make(Labels, len(l)+1)
	for k, v := range l {
		merged[k] = v
	}
	merged[extraKey] = extraVal
	return merged.render()
}

// defaultLE is the exported histogram's upper-bound ladder: powers of four
// from 1µs to ~17s (in nanoseconds). Latencies in this system span from
// sub-millisecond simulated RTTs to multi-second timeout tails, so a 4x
// ladder keeps the page short while still separating the regimes.
var defaultLE = []int64{
	1_000, 4_000, 16_000, 64_000, 256_000,
	1_024_000, 4_096_000, 16_384_000, 65_536_000, 262_144_000,
	1_048_576_000, 4_194_304_000, 16_777_216_000,
}

// Writer accumulates one scrape's worth of metrics in Prometheus text
// exposition format (version 0.0.4). Each metric name is one family: its
// # HELP / # TYPE headers are emitted once, and all of its samples are
// grouped under them in the order written, whatever other families' calls
// come in between. Families appear in first-written order.
type Writer struct {
	families map[string]*strings.Builder
	order    []*strings.Builder
}

// NewWriter creates an empty Writer.
func NewWriter() *Writer {
	return &Writer{families: make(map[string]*strings.Builder)}
}

// family returns name's builder, starting it with its headers on first use.
func (w *Writer) family(name, help, typ string) *strings.Builder {
	if b, ok := w.families[name]; ok {
		return b
	}
	b := new(strings.Builder)
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	w.families[name] = b
	w.order = append(w.order, b)
	return b
}

// Counter writes one cumulative counter sample. Names should end in
// `_total` by convention.
func (w *Writer) Counter(name, help string, labels Labels, v int64) {
	fmt.Fprintf(w.family(name, help, "counter"), "%s%s %d\n", name, labels.render(), v)
}

// Gauge writes one gauge sample.
func (w *Writer) Gauge(name, help string, labels Labels, v float64) {
	fmt.Fprintf(w.family(name, help, "gauge"), "%s%s %g\n", name, labels.render(), v)
}

// Histogram writes a full histogram family — `name_bucket` lines over the
// default upper-bound ladder plus +Inf, `name_sum`, and `name_count`.
// Durations are exported in seconds, the Prometheus base unit.
func (w *Writer) Histogram(name, help string, labels Labels, s HistSnapshot) {
	b := w.family(name, help, "histogram")
	for _, le := range defaultLE {
		fmt.Fprintf(b, "%s_bucket%s %d\n",
			name, labels.renderWith("le", formatSeconds(le)), s.CumulativeLE(le))
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labels.renderWith("le", "+Inf"), s.Count)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, labels.render(), float64(s.Sum)/1e9)
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels.render(), s.Count)
}

// String returns the accumulated exposition page.
func (w *Writer) String() string {
	var out strings.Builder
	for _, b := range w.order {
		out.WriteString(b.String())
	}
	return out.String()
}

// formatSeconds renders nanoseconds as a seconds le label without trailing
// zeros (1_024_000 -> "0.001024").
func formatSeconds(ns int64) string {
	s := fmt.Sprintf("%.9f", float64(ns)/1e9)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// Gatherer fills a Writer with the current metric values. It is called
// once per scrape; implementations snapshot live counters inside the call.
type Gatherer func(*Writer)

// Health is the /healthz body served by ExposeFull: enough to tell at a
// glance whether the process is up, what build it is, and whether trace
// data is being lost.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
	SpansKept     int     `json:"spans_kept"`
	SpansDropped  int64   `json:"spans_dropped"`
}

// BuildRevision returns the VCS revision stamped into the binary, or "".
func BuildRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

// ExposeFull returns an http.Handler serving the observability surface of
// a long-lived node:
//
//	/metrics — the Gatherer's output in Prometheus text format
//	/healthz — a JSON Health body: uptime, build info, span-drop counter
//	/spans   — the collector's push/pull endpoint (absent when spans is nil)
//
// Uptime counts from the ExposeFull call. Mount it on any mux or hand it
// straight to http.Serve; cmd/abd-node's -metrics-addr is the reference
// deployment.
func ExposeFull(g Gatherer, spans *Collector) http.Handler {
	started := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
		w := NewWriter()
		g(w)
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = rw.Write([]byte(w.String()))
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		h := Health{
			Status:        "ok",
			UptimeSeconds: time.Since(started).Seconds(),
			GoVersion:     runtime.Version(),
			Revision:      BuildRevision(),
		}
		if spans != nil {
			h.SpansKept = spans.Len()
			h.SpansDropped = spans.Dropped()
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	if spans != nil {
		mux.Handle("/spans", spans.Handler())
	}
	return mux
}
