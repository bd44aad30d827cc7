package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/prof"
)

// fakePprofServer serves real runtime profiles under /debug/pprof/, the
// same surface abd-node -pprof mounts.
func fakePprofServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	for _, name := range []string{"heap", "goroutine", "allocs"} {
		p := pprof.Lookup(name)
		if p == nil {
			t.Fatalf("no %s profile", name)
		}
		mux.HandleFunc("/debug/pprof/"+name, func(w http.ResponseWriter, r *http.Request) {
			_ = p.WriteTo(w, 0)
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestCaptureFromEndpoints(t *testing.T) {
	srv := fakePprofServer(t)
	addr := strings.TrimPrefix(srv.URL, "http://")
	out := t.TempDir()

	var stdout, stderr bytes.Buffer
	code := run([]string{"capture", "-addrs", addr, "-out", out,
		"-profiles", "heap,goroutine"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("capture exit %d, stderr: %s", code, stderr.String())
	}
	dir := filepath.Join(out, strings.ReplaceAll(addr, ":", "_"))
	for _, name := range []string{"heap.pprof", "goroutine.pprof"} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("capture wrote no %s: %v", name, err)
		}
		if _, err := prof.Parse(buf); err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
	}
}

// TestCaptureDeadNode: one live node, one dead address. The live node's
// profiles land on disk; the dead one is reported and the exit is nonzero.
func TestCaptureDeadNode(t *testing.T) {
	srv := fakePprofServer(t)
	live := strings.TrimPrefix(srv.URL, "http://")
	dead := "127.0.0.1:1" // reserved port, connection refused immediately
	out := t.TempDir()

	var stdout, stderr bytes.Buffer
	code := run([]string{"capture", "-addrs", live + "," + dead, "-out", out,
		"-profiles", "heap"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("capture with a dead node exited 0")
	}
	if _, err := os.Stat(filepath.Join(out, strings.ReplaceAll(live, ":", "_"), "heap.pprof")); err != nil {
		t.Fatalf("live node's profile missing: %v", err)
	}
	if !strings.Contains(stderr.String(), dead) {
		t.Fatalf("stderr does not name the dead node: %s", stderr.String())
	}
}

// TestCaptureRejectsNonProfile: an endpoint answering HTML must not leave a
// bogus .pprof on disk.
func TestCaptureRejectsNonProfile(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html>not a profile</html>")
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	out := t.TempDir()

	var stdout, stderr bytes.Buffer
	code := run([]string{"capture", "-addrs", addr, "-out", out, "-profiles", "heap"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("capture of an HTML page exited 0")
	}
	if _, err := os.Stat(filepath.Join(out, strings.ReplaceAll(addr, ":", "_"), "heap.pprof")); err == nil {
		t.Fatal("bogus profile written to disk")
	}
}

func TestDiffCommand(t *testing.T) {
	grab := func(path string) {
		var buf bytes.Buffer
		if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.pprof"), filepath.Join(dir, "new.pprof")
	grab(oldP)
	grab(newP)

	var stdout, stderr bytes.Buffer
	code := run([]string{"diff", "-type", "inuse_space", "-top", "5", oldP, newP}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("diff exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "inuse_space") || !strings.Contains(stdout.String(), "flat-delta") {
		t.Fatalf("diff output malformed: %s", stdout.String())
	}
}

func TestAttrCommand(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, `# HELP abd_prof_alloc_bytes_total cumulative heap bytes allocated`)
		fmt.Fprintln(w, `abd_prof_alloc_bytes_total{node="0"} 12345`)
		fmt.Fprintln(w, `abd_prof_goroutines{node="0"} 17`)
		fmt.Fprintln(w, `abd_other_series 1`)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var stdout, stderr bytes.Buffer
	code := run([]string{"attr", "-addr", addr}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("attr exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, `abd_prof_alloc_bytes_total{node="0"}`) || !strings.Contains(out, "12345") {
		t.Fatalf("attr output missing series: %s", out)
	}
	if strings.Contains(out, "abd_other_series") {
		t.Fatalf("attr output leaked non-prof series: %s", out)
	}

	// A node without the series is an error, not an empty table.
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "abd_node_uptime_seconds 1")
	}))
	defer empty.Close()
	code = run([]string{"attr", "-addr", strings.TrimPrefix(empty.URL, "http://")}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("attr against a prof-less node exited 0")
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no args exit %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown subcommand exit %d, want 2", code)
	}
	if code := run([]string{"diff", "only-one.pprof"}, &stdout, &stderr); code != 2 {
		t.Fatalf("diff one arg exit %d, want 2", code)
	}
	if code := run([]string{"capture"}, &stdout, &stderr); code != 2 {
		t.Fatalf("capture without -addrs exit %d, want 2", code)
	}
}
