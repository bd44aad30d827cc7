// Command abd-prof is the performance-observability analyzer. Three
// subcommands:
//
//	abd-prof capture -addrs host:port[,host:port...] [-out dir] \
//	         [-profiles heap,goroutine,allocs] [-seconds 5]
//	  Pull profiles from each node's /debug/pprof endpoints (abd-node
//	  -pprof) into out/<addr>/<profile>.pprof. Dead nodes are reported and
//	  skipped; the exit code is nonzero if any node failed.
//
//	abd-prof diff [-type inuse_space] [-top 15] old.pprof new.pprof
//	  Print the top functions by absolute flat delta between two profiles
//	  of the same kind, with cumulative deltas alongside — where the
//	  allocation or CPU budget moved between two captures.
//
//	abd-prof attr -addr host:port
//	  Render the node's abd_prof_* runtime attribution series (allocation
//	  rate, GC pauses, scheduling latency, flight-recorder counters) as a
//	  table, scraped from /metrics.
//
// Exit codes: 0 success, 1 failure, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "capture":
		return runCapture(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "attr":
		return runAttr(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "abd-prof: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage:
  abd-prof capture -addrs host:port[,...] [-out dir] [-profiles heap,goroutine,allocs] [-seconds 5]
  abd-prof diff [-type inuse_space] [-top 15] old.pprof new.pprof
  abd-prof attr -addr host:port
`)
}

// ---- capture ----

func runCapture(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrs := fs.String("addrs", "", "comma-separated metrics addresses (host:port) of nodes running with -pprof")
	out := fs.String("out", "profiles", "output directory (one subdirectory per node)")
	profiles := fs.String("profiles", "heap,goroutine", "comma-separated profile names under /debug/pprof (use profile?seconds=N via -seconds for CPU)")
	seconds := fs.Int("seconds", 5, "CPU profile duration when 'profile' is requested")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addrs == "" {
		fmt.Fprintln(stderr, "abd-prof capture: -addrs required")
		return 2
	}
	failed := 0
	for _, addr := range strings.Split(*addrs, ",") {
		addr = strings.TrimSpace(addr)
		dir := filepath.Join(*out, strings.ReplaceAll(addr, ":", "_"))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "abd-prof capture: %v\n", err)
			return 1
		}
		for _, name := range strings.Split(*profiles, ",") {
			name = strings.TrimSpace(name)
			url := fmt.Sprintf("http://%s/debug/pprof/%s", addr, name)
			timeout := 10 * time.Second
			if name == "profile" {
				url += fmt.Sprintf("?seconds=%d", *seconds)
				timeout += time.Duration(*seconds) * time.Second
			}
			path := filepath.Join(dir, name+".pprof")
			if err := fetchTo(url, path, timeout); err != nil {
				fmt.Fprintf(stderr, "abd-prof capture: %s: %v\n", addr, err)
				failed++
				break // a dead node fails once, not once per profile
			}
			fmt.Fprintf(stdout, "captured %s -> %s\n", url, path)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func fetchTo(url, path string, timeout time.Duration) error {
	cli := &http.Client{Timeout: timeout}
	resp, err := cli.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	// A sanity parse before writing: catches scraping an HTML error page.
	if _, err := prof.Parse(buf); err != nil {
		return fmt.Errorf("%s: not a pprof profile: %w", url, err)
	}
	return os.WriteFile(path, buf, 0o644)
}

// ---- diff ----

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sampleType := fs.String("type", "", "sample type to diff (e.g. inuse_space, alloc_objects; default: the profile's default)")
	top := fs.Int("top", 15, "rows to print")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "abd-prof diff: want exactly two profile files")
		return 2
	}
	oldP, err := parseProfileFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "abd-prof diff: %v\n", err)
		return 1
	}
	newP, err := parseProfileFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "abd-prof diff: %v\n", err)
		return 1
	}
	rows, vt, err := prof.DiffTop(oldP, newP, *sampleType, *top)
	if err != nil {
		fmt.Fprintf(stderr, "abd-prof diff: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "sample type %s/%s: %s -> %s\n", vt.Type, vt.Unit, fs.Arg(0), fs.Arg(1))
	fmt.Fprintf(stdout, "%14s %14s %14s %14s  %s\n", "flat-old", "flat-new", "flat-delta", "cum-delta", "function")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%14d %14d %+14d %+14d  %s\n",
			r.OldFlat, r.NewFlat, r.FlatDelta(), r.CumDelta(), r.Func)
	}
	return 0
}

func parseProfileFile(path string) (*prof.Profile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return prof.Parse(buf)
}

// ---- attr ----

func runAttr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("attr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "node metrics address (host:port)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "abd-prof attr: -addr required")
		return 2
	}
	cli := &http.Client{Timeout: 10 * time.Second}
	resp, err := cli.Get(fmt.Sprintf("http://%s/metrics", *addr))
	if err != nil {
		fmt.Fprintf(stderr, "abd-prof attr: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(stderr, "abd-prof attr: %v\n", err)
		return 1
	}
	rows := attrRows(string(body))
	if len(rows) == 0 {
		fmt.Fprintf(stderr, "abd-prof attr: no abd_prof_* series at %s (old node build?)\n", *addr)
		return 1
	}
	fmt.Fprintf(stdout, "runtime attribution for %s (stats-epoch gauges + cumulative counters):\n", *addr)
	for _, r := range rows {
		fmt.Fprintf(stdout, "  %-44s %s\n", r[0], r[1])
	}
	return 0
}

// attrRows extracts the abd_prof_* sample lines from a Prometheus text
// exposition, as (series, value) pairs in name order.
func attrRows(metrics string) [][2]string {
	var rows [][2]string
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, "abd_prof_") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			continue
		}
		rows = append(rows, [2]string{line[:idx], line[idx+1:]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	return rows
}
