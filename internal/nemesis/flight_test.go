package nemesis

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/lincheck"
	"repro/internal/prof"
)

// TestNemesisFlightRecorder is the flight recorder's end-to-end acceptance
// run: a fault schedule whose burn alerts trigger captures must leave
// profile sets on disk, captured while the faults were live; a fault-free
// control run of the same workload with its own recorder must capture
// nothing. The captured heap and goroutine profiles must be real pprof
// files — the artifacts are useful, not just present.
func TestNemesisFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tcpnet runs")
	}
	const windows = 4
	window := 700 * time.Millisecond

	rec, err := prof.NewRecorder(prof.RecorderConfig{
		Dir:         filepath.Join(t.TempDir(), "flight"),
		MaxCaptures: 4,
		CPUSeconds:  0.2,
		Cooldown:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	// Every window of the schedule breaches the objective (see
	// sloBreachSchedule), so the monitor raises alerts and each fresh alert
	// pulls the trigger.
	res, err := Run(context.Background(), Config{
		Seed: 1, Windows: windows, Window: window, Recorder: rec,
		Schedule: sloBreachSchedule(windows, window),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == lincheck.NotLinearizable {
		t.Fatal("faulted run not linearizable")
	}
	if !pageInWindow(res.Health, windows, window) {
		t.Fatalf("no page alert inside a fault window: %+v", res.Health.Alerts)
	}
	if len(res.Health.Captures) == 0 {
		t.Fatalf("alerts raised (%d) but no flight-recorder captures", len(res.Health.Alerts))
	}

	// At least one capture must have been triggered inside a fault
	// episode's active interval, same coordinates the alert test uses.
	captured := 0
	for _, c := range res.Health.Captures {
		if !strings.HasPrefix(c.Reason, "slo-") {
			t.Errorf("capture reason %q, want slo-*", c.Reason)
		}
		if inWindow(c.At.Sub(res.Health.Start), windows, window) {
			captured++
		}
	}
	if captured == 0 {
		t.Fatalf("no capture inside a fault window: %+v", res.Health.Captures)
	}

	// The profiles are on disk and are pprof files: gzip-compressed, with
	// the sample type in the string table (cpu.pprof may be absent only if
	// the test binary already runs a CPU profile; its error is recorded).
	c := res.Health.Captures[0]
	for name, sampleType := range map[string]string{"heap.pprof": "inuse_space", "goroutine.pprof": "goroutine"} {
		data, err := os.ReadFile(filepath.Join(c.Dir, name))
		if err != nil {
			t.Fatalf("capture %d missing %s: %v", c.Seq, name, err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("capture %d: %s is not gzip: %v", c.Seq, name, err)
		}
		buf, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("capture %d: %s does not decompress: %v", c.Seq, name, err)
		}
		if !bytes.Contains(buf, []byte(sampleType)) {
			t.Fatalf("capture %d: %s names no %s sample type", c.Seq, name, sampleType)
		}
	}
	if _, err := os.Stat(filepath.Join(c.Dir, "meta.json")); err != nil {
		t.Fatalf("capture %d missing meta.json: %v", c.Seq, err)
	}

	// Control: identical workload, empty (non-nil) schedule, fresh
	// recorder. No faults → no alerts → zero captures.
	ctl, err := prof.NewRecorder(prof.RecorderConfig{
		Dir: filepath.Join(t.TempDir(), "flight-ctl"), CPUSeconds: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cres, err := Run(context.Background(), Config{
		Seed: 1, Windows: windows, Window: window,
		Schedule: failure.Schedule{}, Recorder: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Health.Captures) != 0 {
		t.Fatalf("fault-free control captured profiles: %+v", cres.Health.Captures)
	}
	if st := ctl.Stats(); st.Triggered != 0 {
		t.Fatalf("control recorder was triggered %d times", st.Triggered)
	}
}
