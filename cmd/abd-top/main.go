// Command abd-top is a live terminal view over a replica group's /status
// endpoints (served by abd-node next to /metrics). Each refresh it polls
// every node, merges the per-node reports into one cluster picture, and
// renders: node liveness and SLO burn state, cross-replica lag computed
// from the polled tag watermarks (each node only knows its own replica;
// abd-top is the one who sees them all, so it runs health.ComputeLag),
// the fleet-merged hot keys, the probe clients' Byzantine validation, and
// any burn-rate alerts the nodes raised.
//
// Usage:
//
//	abd-top -nodes 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102 \
//	        [-interval 1s] [-quorum N] [-regs 8] [-once]
//
// -quorum defaults to a majority of the polled nodes, matching the ABD
// read/write quorum of a group that size. -once prints a single frame and
// exits (nonzero when no node answered) — the scriptable mode CI uses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/health"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("abd-top", flag.ContinueOnError)
	var (
		nodes    = fs.String("nodes", "", "comma-separated node status addresses (host:port,...)")
		interval = fs.Duration("interval", time.Second, "refresh period")
		quorum   = fs.Int("quorum", 0, "quorum size for the lag watermark (0 = majority of polled nodes)")
		topRegs  = fs.Int("regs", 8, "registers to detail in the lag table")
		once     = fs.Bool("once", false, "print one frame and exit (nonzero when no node answers)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	addrs := splitNodes(*nodes)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "abd-top: -nodes is required (host:port,host:port,...)")
		return 2
	}
	q := *quorum
	if q <= 0 {
		q = len(addrs)/2 + 1
	}

	client := &http.Client{Timeout: 2 * time.Second}
	for {
		frame := poll(client, addrs, q, *topRegs)
		if !*once {
			fmt.Fprint(w, "\x1b[H\x1b[2J") // home + clear: refresh in place
		}
		render(w, frame)
		if *once {
			if frame.up == 0 {
				return 1
			}
			return 0
		}
		time.Sleep(*interval)
	}
}

func splitNodes(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// nodeView is one polled node: its address, the decoded status, or the
// error that kept it out of this frame.
type nodeView struct {
	addr string
	err  error
	st   health.Status
}

// frame is one fully-assembled refresh.
type frame struct {
	at    time.Time
	nodes []nodeView
	up    int
	// lag is computed here from the reachable nodes' watermarks — the
	// cluster-wide view no single node has.
	lag health.LagReport
	// hot is the fleet merge of every node's top-k sketch.
	hot      []health.HotKey
	hotTotal int64
	alerts   []health.Alert
	// byz sums the nodes' Byzantine read-validation counters; byzNodes is
	// how many nodes reported one (0 = the fleet runs without validation
	// and the section is omitted).
	byz      health.ByzStatus
	byzNodes int
}

func poll(client *http.Client, addrs []string, quorum, topRegs int) frame {
	fr := frame{at: time.Now(), nodes: make([]nodeView, len(addrs)),
		byz: health.ByzStatus{Suspects: make(map[int64]int64)}}
	var reports []health.ReplicaTags
	var sketches [][]health.HotKey
	for i, addr := range addrs {
		nv := nodeView{addr: addr}
		nv.st, nv.err = fetchStatus(client, addr)
		fr.nodes[i] = nv
		if nv.err != nil {
			continue
		}
		fr.up++
		if nv.st.Watermarks != nil {
			reports = append(reports, *nv.st.Watermarks)
		}
		sketches = append(sketches, nv.st.HotKeys)
		fr.hotTotal += nv.st.HotKeyTotal
		fr.alerts = append(fr.alerts, nv.st.Alerts...)
		if b := nv.st.Byzantine; b != nil {
			fr.byzNodes++
			if b.ToleratedFaults > fr.byz.ToleratedFaults {
				fr.byz.ToleratedFaults = b.ToleratedFaults
			}
			for id, n := range b.Suspects {
				fr.byz.Suspects[id] += n
			}
			fr.byz.Unconfirmed += b.Unconfirmed
			fr.byz.MaskRetries += b.MaskRetries
		}
	}
	fr.lag = health.ComputeLag(reports, quorum, topRegs)
	fr.hot = health.MergeHotKeys(10, sketches...)
	return fr
}

func fetchStatus(client *http.Client, addr string) (health.Status, error) {
	var st health.Status
	resp, err := client.Get("http://" + addr + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /status: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("bad /status body: %w", err)
	}
	return st, nil
}

func render(w io.Writer, fr frame) {
	fmt.Fprintf(w, "abd-top  %s  %d/%d nodes up  quorum=%d\n",
		fr.at.Format("15:04:05"), fr.up, len(fr.nodes), fr.lag.Quorum)

	fmt.Fprintf(w, "\n  %-22s %6s %8s %10s %6s %7s\n",
		"node", "id", "uptime", "burn", "slo", "alerts")
	for _, nv := range fr.nodes {
		if nv.err != nil {
			fmt.Fprintf(w, "  %-22s DOWN (%v)\n", nv.addr, nv.err)
			continue
		}
		burn, state := "-", "ok"
		if s := nv.st.SLO; s != nil {
			if len(s.Windows) > 0 {
				burn = fmt.Sprintf("%.2f", s.Windows[0].Burn)
			}
			switch {
			case s.PageActive:
				state = "PAGE"
			case s.TicketActive:
				state = "ticket"
			}
		}
		fmt.Fprintf(w, "  %-22s %6d %7.0fs %10s %6s %7d\n",
			nv.addr, nv.st.Node, nv.st.UptimeSeconds, burn, state, len(nv.st.Alerts))
	}

	fmt.Fprintf(w, "\nreplica lag (vs quorum-confirmed watermark):\n")
	if len(fr.lag.Replicas) == 0 {
		fmt.Fprintln(w, "  no watermark reports")
	}
	for _, rl := range fr.lag.Replicas {
		state := "caught up"
		if rl.Behind > 0 {
			state = fmt.Sprintf("BEHIND on %d regs, worst seq lag %d", rl.Behind, rl.MaxSeqLag)
		}
		fmt.Fprintf(w, "  replica %-4d %4d regs sampled  %s\n", rl.Node, rl.Sampled, state)
	}
	for _, rg := range fr.lag.Registers {
		if len(rg.Behind) == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-16s confirmed seq %-6d behind: %v\n", rg.Reg, rg.Confirmed.Seq, rg.Behind)
	}

	fmt.Fprintf(w, "\nhot keys (%d tracked ops, merged over %d nodes):\n", fr.hotTotal, fr.up)
	if len(fr.hot) == 0 {
		fmt.Fprintln(w, "  none yet")
	}
	for _, hk := range fr.hot {
		// Count-Err is the sketch's guaranteed lower bound.
		fmt.Fprintf(w, "  %-20s %8d ops (>= %d)\n", hk.Key, hk.Count, hk.Count-hk.Err)
	}

	if fr.byzNodes > 0 {
		state := "no lies suspected"
		if len(fr.byz.Suspects) > 0 {
			var named []string
			for _, id := range slices.Sorted(maps.Keys(fr.byz.Suspects)) {
				named = append(named, fmt.Sprintf("replica %d (%d replies)", id, fr.byz.Suspects[id]))
			}
			state = "LIARS NAMED: " + strings.Join(named, ", ")
		}
		fmt.Fprintf(w, "\nbyzantine validation (f=%d, %d nodes): %s\n",
			fr.byz.ToleratedFaults, fr.byzNodes, state)
		fmt.Fprintf(w, "  unconfirmed rounds %d  mask retries %d\n",
			fr.byz.Unconfirmed, fr.byz.MaskRetries)
	}

	if len(fr.alerts) > 0 {
		fmt.Fprintf(w, "\nalerts:\n")
		for _, a := range fr.alerts {
			fmt.Fprintf(w, "  %s  %-6s %s burn=%.2f\n",
				a.At.Format("15:04:05"), a.Severity, a.SLO, a.Burn)
		}
	}
}
