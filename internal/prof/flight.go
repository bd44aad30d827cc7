package prof

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// RecorderConfig tunes the flight recorder.
type RecorderConfig struct {
	// Dir is the on-disk ring's root; created if missing. Each capture gets
	// one subdirectory named <seq>-<reason>.
	Dir string
	// MaxCaptures bounds the ring: when a capture completes, the oldest
	// directories beyond this count are evicted. Default 8.
	MaxCaptures int
	// CPUSeconds is how long the CPU profile samples. Default 1s; the
	// heap and goroutine profiles are instantaneous either way.
	CPUSeconds float64
	// Cooldown is the minimum gap between capture completions; triggers
	// inside it are counted but skipped, so an alert storm cannot churn
	// the whole ring past the episode that raised it. Default 10s.
	Cooldown time.Duration
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = 8
	}
	if c.CPUSeconds <= 0 {
		c.CPUSeconds = 1
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	return c
}

// Capture describes one completed capture (also persisted as meta.json in
// its directory).
type Capture struct {
	Seq    int       `json:"seq"`
	Reason string    `json:"reason"`
	At     time.Time `json:"at"` // trigger time, not completion time
	Dir    string    `json:"dir"`
	Files  []string  `json:"files"`
	// Errs records per-profile failures (e.g. the CPU profiler already
	// running); the capture still completes with whatever it got.
	Errs []string `json:"errs,omitempty"`
}

// RecorderStats counts the recorder's lifetime activity.
type RecorderStats struct {
	Triggered int64 // Trigger calls
	Captured  int64 // captures completed
	Skipped   int64 // triggers dropped: capture in flight or cooldown
	Evicted   int64 // capture directories removed to keep the ring bounded
}

// Recorder is the anomaly-triggered flight recorder: an asynchronous,
// single-flight profile capturer over a bounded on-disk ring. Trigger is
// cheap and non-blocking, so it is safe to call from a health watchdog's
// hot loop.
type Recorder struct {
	cfg RecorderConfig

	mu       sync.Mutex
	inflight bool
	lastDone time.Time
	seq      int
	captures []Capture
	stats    RecorderStats
	wg       sync.WaitGroup
}

// NewRecorder creates the capture directory and returns a recorder.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("prof: RecorderConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	return &Recorder{cfg: cfg}, nil
}

// Trigger requests a capture attributed to reason (e.g. "slo-page",
// "slo-ticket"). It returns immediately: true if a capture was started,
// false if it was skipped because one is in flight or the cooldown since
// the last completion has not elapsed. Safe for concurrent use; nil-safe,
// so callers can hold an optional recorder without guarding every call.
func (r *Recorder) Trigger(reason string) bool {
	if r == nil {
		return false
	}
	now := time.Now()
	r.mu.Lock()
	r.stats.Triggered++
	if r.inflight || (!r.lastDone.IsZero() && now.Sub(r.lastDone) < r.cfg.Cooldown) {
		r.stats.Skipped++
		r.mu.Unlock()
		return false
	}
	r.inflight = true
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	r.wg.Add(1)
	go r.capture(seq, reason, now)
	return true
}

func (r *Recorder) capture(seq int, reason string, at time.Time) {
	defer r.wg.Done()
	c := Capture{
		Seq:    seq,
		Reason: reason,
		At:     at,
		Dir:    filepath.Join(r.cfg.Dir, fmt.Sprintf("%06d-%s", seq, sanitizeReason(reason))),
	}
	fail := func(err error) { c.Errs = append(c.Errs, err.Error()) }
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		fail(err)
	} else {
		// CPU first: the instantaneous profiles then describe the state at
		// the end of the sampled window.
		if err := r.cpuProfile(filepath.Join(c.Dir, "cpu.pprof")); err != nil {
			fail(err)
		} else {
			c.Files = append(c.Files, "cpu.pprof")
		}
		for _, p := range []string{"heap", "goroutine"} {
			if err := lookupProfile(p, filepath.Join(c.Dir, p+".pprof")); err != nil {
				fail(err)
			} else {
				c.Files = append(c.Files, p+".pprof")
			}
		}
		if buf, err := json.MarshalIndent(c, "", "  "); err == nil {
			_ = os.WriteFile(filepath.Join(c.Dir, "meta.json"), append(buf, '\n'), 0o644)
		}
	}
	evicted := r.evict()

	r.mu.Lock()
	r.captures = append(r.captures, c)
	r.stats.Captured++
	r.stats.Evicted += evicted
	r.inflight = false
	r.lastDone = time.Now()
	r.mu.Unlock()
}

func (r *Recorder) cpuProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile is running (e.g. a /debug/pprof/profile
		// scrape); the capture proceeds with the instantaneous profiles.
		os.Remove(path)
		return err
	}
	time.Sleep(time.Duration(r.cfg.CPUSeconds * float64(time.Second)))
	pprof.StopCPUProfile()
	return nil
}

func lookupProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.WriteTo(f, 0)
}

// evict removes the oldest capture directories beyond MaxCaptures and
// returns how many it removed. Directory names sort by sequence number, so
// lexical order is capture order.
func (r *Recorder) evict() int64 {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return 0
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	var evicted int64
	for len(dirs) > r.cfg.MaxCaptures {
		if err := os.RemoveAll(filepath.Join(r.cfg.Dir, dirs[0])); err == nil {
			evicted++
		}
		dirs = dirs[1:]
	}
	return evicted
}

// Captures returns the completed captures, in completion order. Evicted
// captures stay listed (their directories are gone); consult Files/Dir
// existence when reading profiles back.
func (r *Recorder) Captures() []Capture {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Capture(nil), r.captures...)
}

// Stats returns the recorder's lifetime counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Wait blocks until any in-flight capture completes. The recorder stays
// usable; call it before reading Captures at a quiesce point.
func (r *Recorder) Wait() {
	if r == nil {
		return
	}
	r.wg.Wait()
}

// Close waits for in-flight captures. (The recorder holds no file handles
// between captures; Close exists for symmetric lifecycle wiring.)
func (r *Recorder) Close() { r.Wait() }

func sanitizeReason(s string) string {
	if s == "" {
		return "trigger"
	}
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + ('a' - 'A'))
		default:
			b.WriteRune('-')
		}
	}
	const maxReason = 48
	out := b.String()
	if len(out) > maxReason {
		out = out[:maxReason]
	}
	return out
}
