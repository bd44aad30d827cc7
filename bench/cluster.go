package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/types"
)

// findRoot walks up from the working directory to the checkout root: the
// directory that holds cmd/abd-node. `go run -C bench .` starts in bench/,
// a built binary may start anywhere below the root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "abd-node", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/abd-node not found above the working directory: run from inside a checkout")
		}
		dir = parent
	}
}

// workspace is this process's scratch directory, <root>/.bench_build/run-*:
// the abd-node binary, WAL files, node logs and span files all live in it,
// and remove deletes it. Nothing is written outside the checkout.
type workspace struct {
	root string
	dir  string
	bin  string
}

// newWorkspace creates the scratch directory and builds cmd/abd-node into
// it. The build happens here, before any timer starts.
func newWorkspace(ctx context.Context) (*workspace, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	ws := &workspace{root: root, dir: dir, bin: filepath.Join(dir, "abd-node")}
	build := exec.CommandContext(ctx, "go", "build", "-o", ws.bin, "./cmd/abd-node")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		ws.remove()
		return nil, fmt.Errorf("go build ./cmd/abd-node: %v\n%s", err, out)
	}
	return ws, nil
}

func (ws *workspace) remove() { _ = os.RemoveAll(ws.dir) }

// node is one abd-node process and the addresses it was given.
type node struct {
	id      int
	listen  string
	metrics string
	wal     string
	spans   string // -trace-out file; "" when the run is untraced
	log     string

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed once the current process has been reaped
	// deadCPU is the user+sys time of this node's earlier, reaped
	// incarnations, so CPU accounting survives a kill and restart.
	deadCPU time.Duration
}

// cluster is the three replicas of one set-up.
type cluster struct {
	ws    *workspace
	dir   string
	nodes []*node
}

// freeAddr asks the kernel for a free loopback port. The port is released
// before the node binds it, so a collision with another process is possible
// in principle; startCluster retries the whole spawn when a node fails to
// come up.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startCluster spawns the replicas on fresh ports and fresh WAL files and
// returns once every one of them accepts connections and serves /healthz.
func startCluster(ctx context.Context, ws *workspace, traced bool) (*cluster, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := spawnCluster(ctx, ws, traced)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func spawnCluster(ctx context.Context, ws *workspace, traced bool) (*cluster, error) {
	dir, err := os.MkdirTemp(ws.dir, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{ws: ws, dir: dir}
	for i := 0; i < replicas; i++ {
		n := &node{id: i, wal: filepath.Join(dir, fmt.Sprintf("n%d.wal", i)), log: filepath.Join(dir, fmt.Sprintf("n%d.log", i))}
		if n.listen, err = freeAddr(); err == nil {
			n.metrics, err = freeAddr()
		}
		if err != nil {
			c.stop()
			return nil, err
		}
		if traced {
			n.spans = filepath.Join(dir, fmt.Sprintf("n%d.spans.jsonl", i))
		}
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		if err := n.start(ws.bin); err != nil {
			c.stop()
			return nil, err
		}
	}
	for _, n := range c.nodes {
		if err := n.waitReady(ctx, 10*time.Second); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// start launches the node in its own process group, so that stop can signal
// the group, with the kernel told to kill it should this process die first.
func (n *node) start(bin string) error {
	args := []string{"-id", strconv.Itoa(n.id), "-listen", n.listen, "-metrics-addr", n.metrics, "-wal", n.wal}
	if n.spans != "" {
		args = append(args, "-trace-out", n.spans)
	}
	logf, err := os.OpenFile(n.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %d: %w", n.id, err)
	}
	done := make(chan struct{})
	n.mu.Lock()
	n.cmd, n.done = cmd, done
	n.mu.Unlock()
	go func() {
		_ = cmd.Wait() // reaps; a killed node's error is expected
		n.mu.Lock()
		n.deadCPU += cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		n.mu.Unlock()
		close(done)
	}()
	return nil
}

// waitReady polls until the node accepts on its replica port and answers
// /healthz.
func (n *node) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if n.exited() {
			return fmt.Errorf("node %d exited during start-up:\n%s", n.id, n.logTail())
		}
		if conn, err := net.DialTimeout("tcp", n.listen, 200*time.Millisecond); err == nil {
			conn.Close()
			if _, err := httpGet(ctx, "http://"+n.metrics+"/healthz"); err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("node %d not ready after %v:\n%s", n.id, limit, n.logTail())
		}
		// Readiness is part of setup_s, which on the small workloads is only
		// ~25 ms: poll on nanosleep, not on a Go timer's millisecond.
		sleepUntil(time.Now().Add(250 * time.Microsecond))
	}
}

func (n *node) exited() bool {
	n.mu.Lock()
	done := n.done
	n.mu.Unlock()
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func (n *node) pid() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cmd == nil || n.cmd.Process == nil {
		return 0
	}
	return n.cmd.Process.Pid
}

func (n *node) logTail() string {
	b, _ := os.ReadFile(n.log)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(b)
}

// signalGroup sends sig to the node's process group and waits, up to wait,
// for the process to be reaped.
func (n *node) signalGroup(sig syscall.Signal, wait time.Duration) bool {
	n.mu.Lock()
	cmd, done := n.cmd, n.done
	n.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return true
	}
	_ = syscall.Kill(-cmd.Process.Pid, sig)
	select {
	case <-done:
		return true
	case <-time.After(wait):
		return false
	}
}

// kill is the crash fault: SIGKILL, then reap.
func (n *node) kill() { n.signalGroup(syscall.SIGKILL, 5*time.Second) }

// terminate asks for the graceful shutdown (which flushes -trace-out) and
// falls back to SIGKILL if the node does not leave in time.
func (n *node) terminate() {
	if !n.signalGroup(syscall.SIGTERM, 5*time.Second) {
		n.kill()
	}
}

// cpu returns the node's user+sys CPU time so far, across incarnations.
func (n *node) cpu() time.Duration {
	n.mu.Lock()
	dead := n.deadCPU
	n.mu.Unlock()
	if n.exited() {
		return dead
	}
	return dead + procCPU(n.pid())
}

// stop kills every node still running and waits for each to be reaped. It
// is safe to call more than once and on a half-built cluster.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.kill()
	}
}

// remove deletes the cluster's WAL, log and span files.
func (c *cluster) remove() { _ = os.RemoveAll(c.dir) }

// peers is the address table a loadgen endpoint dials.
func (c *cluster) peers() (map[types.NodeID]string, []types.NodeID) {
	m := make(map[types.NodeID]string, len(c.nodes))
	order := make([]types.NodeID, 0, len(c.nodes))
	for _, n := range c.nodes {
		m[types.NodeID(n.id)] = n.listen
		order = append(order, types.NodeID(n.id))
	}
	return m, order
}

var httpClient = &http.Client{Timeout: 2 * time.Second}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape fetches a node's /metrics and returns every unlabelled-by-endpoint
// series value by name (the node label is dropped; probe-endpoint series,
// which these nodes do not have, would be skipped).
func (n *node) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := httpGet(ctx, "http://"+n.metrics+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, `endpoint="probe"`) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name[i:], "le=") || strings.Contains(name[i:], "register=") {
				continue // histogram buckets and per-register gauges are not used
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// procCPU reads user+sys CPU time of a live process from /proc/<pid>/stat.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks (100/s on Linux).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * (time.Second / 100)
}

// procRSS reads a live process's resident set size in bytes.
func procRSS(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize())
}

// procWriteBytes reads how many bytes a live process has caused to be sent
// to the storage layer (/proc/<pid>/io write_bytes). WAL appends and
// compaction rewrites both count; socket writes do not.
func procWriteBytes(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
