package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func quick() Options { return Options{Quick: true, Seed: 7} }

func runExp(t *testing.T, fn func(Options) (*Table, error)) *Table {
	t.Helper()
	tbl, err := fn(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("experiment produced no rows")
	}
	// Formatting must not panic and must include the ID.
	var buf bytes.Buffer
	tbl.Format(&buf)
	if !strings.Contains(buf.String(), tbl.ID) {
		t.Fatalf("formatted output missing ID: %s", buf.String())
	}
	return tbl
}

// TestPinnedPaperCells pins the EXPERIMENTS.md cells that are exact by
// construction at quick scale, so the recorded tables are checked rather
// than transcribed: T1's message counts per n (2n/4n/4n/2n, and 2q+2n/2q+2n/2q
// for the default client's one-quorum queries), F4's ok/blocked
// boundary per (n, side), F5's minimum quorum sizes, T5's two phases per
// multi-writer write, and T6's corrupted-read counts (a fabricating or
// equivocating liar corrupts every plain-majority read; WithByzantine(1)
// lets none through under any mode). Timing columns are not pinned.
func TestPinnedPaperCells(t *testing.T) {
	t1 := map[string]string{}
	for _, n := range []int{3, 5, 7, 9} {
		for op, k := range map[string]int{"SWMR write": 2, "read": 4, "MWMR write": 4, "read (fast path)": 2} {
			t1[fmt.Sprintf("%d/%s", n, op)] = fmt.Sprintf("%d.0", k*n)
		}
		q := n/2 + 1 // the default client queries one majority
		for op, msgs := range map[string]int{"read, one quorum": 2*q + 2*n, "MWMR write, one quorum": 2*q + 2*n, "read (fast path), one quorum": 2 * q} {
			t1[fmt.Sprintf("%d/%s", n, op)] = fmt.Sprintf("%d.0", msgs)
		}
	}
	f4 := map[string]string{}
	for _, n := range []int{4, 5} {
		for side := 0; side <= n; side++ {
			verdict := "blocked blocked"
			if side > n/2 {
				verdict = "ok ok"
			}
			f4[fmt.Sprintf("%d/%d", n, side)] = verdict
		}
	}
	reads := strconv.Itoa(quick().scale(60, 15))
	t6 := map[string]string{
		"fabricate-high-ts/majority": reads,
		"equivocate/majority":        reads,
	}
	for _, atk := range []string{"fabricate-high-ts", "report-stale", "equivocate", "silent"} {
		t6[atk+"/masking(f=1)"] = "0"
	}

	cases := []struct {
		id   string
		run  func(Options) (*Table, error)
		key  []int // columns naming a row, joined by "/"
		cols []int // pinned columns, joined by " "
		want map[string]string
	}{
		{"T1", T1MessageComplexity, []int{0, 1}, []int{2}, t1},
		{"F4", F4PartitionBoundary, []int{0, 1}, []int{3, 4}, f4},
		{"F5", F5QuorumAvailability, []int{0}, []int{6}, map[string]string{
			"majority(n=9)": "5/5", "grid(3x3)": "3/5",
			"majority(n=16)": "9/9", "grid(4x4)": "4/7",
			"majority(n=25)": "13/13", "grid(5x5)": "5/9",
			"rowa(n=9)": "1/9",
		}},
		{"T5", T5MultiWriter, []int{0}, []int{2}, map[string]string{
			"1": "2.0", "2": "2.0", "4": "2.0", "8": "2.0",
		}},
		{"T6", T6Byzantine, []int{0, 1}, []int{3}, t6},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			tbl := runExp(t, tc.run)
			got := map[string]string{}
			for _, row := range tbl.Rows {
				got[pick(row, tc.key, "/")] = pick(row, tc.cols, " ")
			}
			for key, want := range tc.want {
				if got[key] != want {
					t.Errorf("%s %s: got %q, want %q", tc.id, key, got[key], want)
				}
			}
		})
	}
}

// pick joins the given columns of row with sep.
func pick(row []string, cols []int, sep string) string {
	cells := make([]string, len(cols))
	for i, c := range cols {
		cells[i] = row[c]
	}
	return strings.Join(cells, sep)
}

func TestT2RoundShapes(t *testing.T) {
	tbl := runExp(t, T2Rounds)
	// Reads must take roughly twice as long as single-writer writes.
	var swWrite, read float64
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad inferred RTT %q", row[3])
		}
		switch row[0] {
		case "SWMR write":
			swWrite = v
		case "read":
			read = v
		}
	}
	if swWrite == 0 || read == 0 {
		t.Fatal("missing rows")
	}
	if read < 1.4*swWrite {
		t.Errorf("read RTTs %.1f not ~2x write RTTs %.1f", read, swWrite)
	}
}

func TestF1HasAllSystems(t *testing.T) {
	tbl := runExp(t, F1LatencyVsN)
	seen := map[string]bool{}
	for _, row := range tbl.Rows {
		seen[row[1]] = true
	}
	for _, sys := range []string{"abd", "central", "rowa"} {
		if !seen[sys] {
			t.Errorf("F1 missing system %s", sys)
		}
	}
}

func TestF2Shapes(t *testing.T) {
	tbl := runExp(t, F2CrashTolerance)
	status := func(f int, sys, col string) string {
		for _, row := range tbl.Rows {
			if row[0] == strconv.Itoa(f) && row[1] == sys {
				if col == "writes" {
					return row[2]
				}
				return row[3]
			}
		}
		t.Fatalf("row f=%d sys=%s not found", f, sys)
		return ""
	}
	// ABD: everything ok through f=2.
	for f := 0; f <= 2; f++ {
		if got := status(f, "abd", "writes"); got != "ok" {
			t.Errorf("abd writes at f=%d: %s", f, got)
		}
		if got := status(f, "abd", "reads"); got != "ok" {
			t.Errorf("abd reads at f=%d: %s", f, got)
		}
	}
	// ROWA writes blocked from f=1; central blocked entirely from f=1.
	if got := status(1, "rowa", "writes"); got != "blocked" {
		t.Errorf("rowa writes at f=1: %s", got)
	}
	if got := status(1, "central", "writes"); got != "blocked" {
		t.Errorf("central writes at f=1: %s", got)
	}
	if got := status(1, "central", "reads"); got != "blocked" {
		t.Errorf("central reads at f=1: %s", got)
	}
}

func TestT3Verdicts(t *testing.T) {
	tbl := runExp(t, T3Linearizability)
	for _, row := range tbl.Rows {
		variant, verdict := row[0], row[4]
		switch {
		case strings.HasPrefix(variant, "abd"):
			if verdict != "matches claim" {
				t.Errorf("%s: %s", variant, verdict)
			}
		case strings.HasPrefix(variant, "regular"):
			if verdict != "matches claim" {
				t.Errorf("%s: expected a violation to be found, got %s", variant, verdict)
			}
		}
	}
}

func TestF5GridTradeoff(t *testing.T) {
	tbl := runExp(t, F5QuorumAvailability)
	// The grid's smaller quorums (pinned in TestPinnedPaperCells) cost it
	// availability: at p=0.3 grid(3x3) must trail majority(9).
	var majAvail, gridAvail float64
	for _, row := range tbl.Rows {
		switch row[0] {
		case "majority(n=9)":
			majAvail, _ = strconv.ParseFloat(row[4], 64)
		case "grid(3x3)":
			gridAvail, _ = strconv.ParseFloat(row[4], 64)
		}
	}
	if gridAvail >= majAvail {
		t.Errorf("grid availability %.3f should trail majority %.3f at p=0.3", gridAvail, majAvail)
	}
}

func TestT4BoundedDomainConstant(t *testing.T) {
	tbl := runExp(t, T4BoundedLabels)
	var boundedRow []string
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "bounded") {
			boundedRow = row
		}
	}
	if boundedRow == nil {
		t.Fatal("no bounded row")
	}
	if !strings.Contains(boundedRow[2], "constant") {
		t.Errorf("bounded bits column: %s", boundedRow[2])
	}
	if boundedRow[5] != "0" {
		t.Errorf("bounded violations: %s", boundedRow[5])
	}
}

func TestT5AllLinearizable(t *testing.T) {
	tbl := runExp(t, T5MultiWriter)
	for _, row := range tbl.Rows {
		if row[4] != "linearizable" {
			t.Errorf("k=%s writers: history %s", row[0], row[4])
		}
	}
}

func TestF6Runs(t *testing.T) {
	tbl := runExp(t, F6Applications)
	kinds := map[string]bool{}
	for _, row := range tbl.Rows {
		kinds[row[0]] = true
	}
	for _, k := range []string{"snapshot update", "snapshot scan", "bakery lock"} {
		if !kinds[k] {
			t.Errorf("F6 missing workload %s", k)
		}
	}
}

func TestF3Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment is time-based")
	}
	tbl := runExp(t, F3Throughput)
	for _, row := range tbl.Rows {
		ops, err := strconv.ParseFloat(row[2], 64)
		if err != nil || ops <= 0 {
			t.Errorf("row %v: bad ops/s", row)
		}
	}
}

func TestF7AblationShapes(t *testing.T) {
	tbl := runExp(t, F7Ablations)
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row
	}
	full, one := byName["fanout=all (paper)"], byName["default"]
	if full == nil || one == nil {
		t.Fatal("missing fanout rows")
	}
	// Broadcast costs more messages per op than asking one quorum.
	fullMsgs, _ := strconv.ParseFloat(full[1], 64)
	oneMsgs, _ := strconv.ParseFloat(one[1], 64)
	if fullMsgs <= oneMsgs {
		t.Errorf("fanout=all msgs/op %.1f should exceed default %.1f", fullMsgs, oneMsgs)
	}
	// Both stay available under one crash: the default client's query
	// widens past the crashed replica within one retransmit interval.
	for _, row := range [][]string{full, one} {
		if row[3] != row[2] {
			t.Errorf("%s degraded under one crash: %s vs %s", row[0], row[3], row[2])
		}
	}
	// With retransmission, every op completes despite 10% loss.
	retry := byName["25% loss + retransmit"]
	if retry == nil {
		t.Fatal("missing retransmit row")
	}
	okPart, totalPart, found := strings.Cut(retry[2], "/")
	if !found || okPart != totalPart {
		t.Errorf("retransmit under loss: ops ok = %s, want all", retry[2])
	}
	if retry[4] == "0" {
		t.Error("retransmit row recorded no retransmissions at 25% loss")
	}
}

func TestFindAndAll(t *testing.T) {
	if len(All()) != 13 {
		t.Fatalf("expected 13 experiments, got %d", len(All()))
	}
	if _, ok := Find("t1"); !ok {
		t.Fatal("Find case-insensitive lookup failed")
	}
	if _, ok := Find("T9"); ok {
		t.Fatal("Find accepted unknown id")
	}
}

func TestHelpers(t *testing.T) {
	samples := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if got := mean(samples); got != 2*time.Millisecond {
		t.Fatalf("mean=%v", got)
	}
	if got := percentile(samples, 0.0); got != time.Millisecond {
		t.Fatalf("p0=%v", got)
	}
	if got := percentile(samples, 1.0); got != 3*time.Millisecond {
		t.Fatalf("p100=%v", got)
	}
	if mean(nil) != 0 || percentile(nil, 0.5) != 0 {
		t.Fatal("empty samples not handled")
	}
}
