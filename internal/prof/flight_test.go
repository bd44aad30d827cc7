package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func newTestRecorder(t *testing.T, max int, cooldown time.Duration) *Recorder {
	t.Helper()
	r, err := NewRecorder(RecorderConfig{
		Dir:         t.TempDir(),
		MaxCaptures: max,
		CPUSeconds:  0.05,
		Cooldown:    cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecorderCaptureWritesProfiles(t *testing.T) {
	r := newTestRecorder(t, 4, time.Millisecond)
	if !r.Trigger("slo-page") {
		t.Fatal("first trigger was skipped")
	}
	r.Wait()
	caps := r.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want 1", len(caps))
	}
	c := caps[0]
	if len(c.Errs) > 0 {
		t.Fatalf("capture errors: %v", c.Errs)
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof", "goroutine.pprof", "meta.json"} {
		if _, err := os.Stat(filepath.Join(c.Dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	// The captured profiles are pprof files: gzip-compressed, with the
	// sample type in the string table.
	for f, sampleType := range map[string]string{"heap.pprof": "inuse_space", "goroutine.pprof": "goroutine"} {
		data, err := os.ReadFile(filepath.Join(c.Dir, f))
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s is not gzip: %v", f, err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s does not decompress: %v", f, err)
		}
		if !bytes.Contains(raw, []byte(sampleType)) {
			t.Fatalf("%s names no %s sample type", f, sampleType)
		}
	}
	st := r.Stats()
	if st.Triggered != 1 || st.Captured != 1 || st.Skipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecorderCooldownAndSingleFlight(t *testing.T) {
	r := newTestRecorder(t, 4, time.Hour)
	if !r.Trigger("slo-ticket") {
		t.Fatal("first trigger was skipped")
	}
	// In flight or cooling down: every further trigger is skipped.
	for i := 0; i < 5; i++ {
		if r.Trigger("slo-ticket") {
			t.Fatal("trigger accepted during in-flight capture")
		}
	}
	r.Wait()
	if r.Trigger("slo-ticket") {
		t.Fatal("trigger accepted inside cooldown")
	}
	st := r.Stats()
	if st.Captured != 1 || st.Skipped != 6 {
		t.Fatalf("stats = %+v, want 1 captured / 6 skipped", st)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := newTestRecorder(t, 2, time.Millisecond)
	for i := 0; i < 4; i++ {
		for !r.Trigger("slo-ticket") {
			time.Sleep(2 * time.Millisecond)
		}
		r.Wait()
	}
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) != 2 {
		t.Fatalf("ring holds %d dirs (%v), want 2", len(dirs), dirs)
	}
	// The survivors are the newest captures.
	for _, d := range dirs {
		if d < "000003" {
			t.Fatalf("old capture %s survived eviction (have %v)", d, dirs)
		}
	}
	if st := r.Stats(); st.Evicted != 2 {
		t.Fatalf("stats = %+v, want 2 evicted", st)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.Trigger("x") {
		t.Fatal("nil recorder accepted a trigger")
	}
	r.Wait()
	if got := r.Captures(); got != nil {
		t.Fatalf("nil recorder captures = %v", got)
	}
	if st := r.Stats(); st != (RecorderStats{}) {
		t.Fatalf("nil recorder stats = %+v", st)
	}
}

func TestSanitizeReason(t *testing.T) {
	for in, want := range map[string]string{
		"slo-page":   "slo-page",
		"SLO Page!":  "slo-page-",
		"":           "trigger",
		"slo ticket": "slo-ticket",
	} {
		if got := sanitizeReason(in); got != want {
			t.Errorf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
}
