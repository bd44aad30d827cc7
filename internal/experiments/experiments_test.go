package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

func TestT1ExactMessageCounts(t *testing.T) {
	tbl := runExp(t, T1MessageComplexity)
	for _, row := range tbl.Rows {
		if row[4] != "yes" {
			t.Errorf("T1 row %v: measured %s, expected %s", row[:2], row[2], row[3])
		}
	}
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

func TestF4MajorityBoundaryIsTight(t *testing.T) {
	tbl := runExp(t, F4PartitionBoundary)
	for _, row := range tbl.Rows {
		n, _ := strconv.Atoi(row[0])
		side, _ := strconv.Atoi(row[1])
		writes := row[3]
		if side > n/2 && writes != "ok" {
			t.Errorf("n=%d side=%d: majority side should be live, writes=%s", n, side, writes)
		}
		if side <= n/2 && writes != "blocked" {
			t.Errorf("n=%d side=%d: minority side should block, writes=%s", n, side, writes)
		}
	}
}

func TestF5GridTradeoff(t *testing.T) {
	tbl := runExp(t, F5QuorumAvailability)
	// Find majority(9) and grid(3x3): the grid must have smaller write
	// quorums but lower availability at p=0.3.
	var majAvail, gridAvail float64
	var majQ, gridQ string
	for _, row := range tbl.Rows {
		switch row[0] {
		case "majority(n=9)":
			majAvail, _ = strconv.ParseFloat(row[4], 64)
			majQ = row[6]
		case "grid(3x3)":
			gridAvail, _ = strconv.ParseFloat(row[4], 64)
			gridQ = row[6]
		}
	}
	if majQ != "5/5" {
		t.Errorf("majority(9) min quorums %s", majQ)
	}
	if gridQ != "3/5" {
		t.Errorf("grid(3x3) min quorums %s", gridQ)
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
		phases, _ := strconv.ParseFloat(row[2], 64)
		if phases < 1.9 || phases > 2.1 {
			t.Errorf("k=%s writers: %.1f phases/write, want 2", row[0], phases)
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

func TestT6MaskingBlocksCorruption(t *testing.T) {
	tbl := runExp(t, T6Byzantine)
	for _, row := range tbl.Rows {
		attack, proto, corrupted := row[0], row[1], row[3]
		if strings.HasPrefix(proto, "masking") && corrupted != "0" {
			t.Errorf("%s under masking: %s corrupted reads", attack, corrupted)
		}
		if (attack == "fabricate-high-ts" || attack == "equivocate") && proto == "majority" && corrupted == "0" {
			t.Errorf("%s against plain majority corrupted nothing; attack broken", attack)
		}
	}
}

func TestF7AblationShapes(t *testing.T) {
	tbl := runExp(t, F7Ablations)
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row
	}
	full, narrow := byName["fanout=all (paper)"], byName["fanout=quorum (3)"]
	if full == nil || narrow == nil {
		t.Fatal("missing fanout rows")
	}
	// Broadcast costs more messages per op than contacting a bare quorum.
	fullMsgs, _ := strconv.ParseFloat(full[1], 64)
	narrowMsgs, _ := strconv.ParseFloat(narrow[1], 64)
	if fullMsgs <= narrowMsgs {
		t.Errorf("fanout=all msgs/op %.1f should exceed fanout=quorum %.1f", fullMsgs, narrowMsgs)
	}
	// Broadcast is crash-oblivious; the narrow window is not.
	if full[3] != full[2] {
		t.Errorf("fanout=all degraded under one crash: %s vs %s", full[3], full[2])
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

func TestL1LatencyShapes(t *testing.T) {
	var trace bytes.Buffer
	opts := quick()
	opts.TraceWriter = &trace
	tbl, err := L1LatencyProfile(opts)
	if err != nil {
		t.Fatal(err)
	}
	p50 := make(map[string]float64)
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "µs"), 64)
		if err != nil {
			t.Fatalf("bad p50 cell %q", row[2])
		}
		p50[row[0]] = v
	}
	mw, sw := p50["write (MW)"], p50["write (SW)"]
	if mw == 0 || sw == 0 {
		t.Fatalf("missing rows: %v", p50)
	}
	// Two phases vs one: MW write p50 should be roughly twice SW write p50.
	if mw < 1.4*sw {
		t.Errorf("MW write p50 %.0fµs not ~2x SW write p50 %.0fµs", mw, sw)
	}
	if trace.Len() == 0 {
		t.Error("TraceWriter received no spans")
	}
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("trace line is not a JSON object: %q", line)
		}
	}
}

func TestFindAndAll(t *testing.T) {
	if len(All()) != 20 {
		t.Fatalf("expected 20 experiments, got %d", len(All()))
	}
	if _, ok := Find("t1"); !ok {
		t.Fatal("Find case-insensitive lookup failed")
	}
	if r, ok := Find("throughput"); !ok || r.ID != "TP" {
		t.Fatalf("Find by alias: %v %v", r.ID, ok)
	}
	if r, ok := Find("shards"); !ok || r.ID != "SH" {
		t.Fatalf("Find by alias: %v %v", r.ID, ok)
	}
	if r, ok := Find("hotkeys"); !ok || r.ID != "HK" {
		t.Fatalf("Find by alias: %v %v", r.ID, ok)
	}
	if r, ok := Find("byz"); !ok || r.ID != "BY" {
		t.Fatalf("Find by alias: %v %v", r.ID, ok)
	}
	if r, ok := Find("alloc"); !ok || r.ID != "AL" {
		t.Fatalf("Find by alias: %v %v", r.ID, ok)
	}
	if r, ok := Find("fastpath"); !ok || r.ID != "FP" {
		t.Fatalf("Find by alias: %v %v", r.ID, ok)
	}
	if _, ok := Find("T9"); ok {
		t.Fatal("Find accepted unknown id")
	}
}

// TestTPThroughput runs the pipeline experiment at CI scale and checks the
// report invariants: both passes complete ops, the disabled pass really has
// the pipeline off (batch size pinned to 1, nothing coalesced), the enabled
// pass batches and coalesces, and group commit keeps fsyncs-per-acked-write
// below one.
func TestTPThroughput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tp.json")
	tbl, err := TPThroughput(Options{Quick: true, Seed: 1, JSONOut: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tbl.Rows))
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Passes []struct {
			Name           string  `json:"name"`
			Ops            int64   `json:"ops"`
			FsyncsPerWrite float64 `json:"fsyncs_per_write"`
			BatchMax       int64   `json:"batch_max"`
			CoalescedReads int64   `json:"coalesced_reads"`
			AbsorbedWrites int64   `json:"absorbed_writes"`
		} `json:"passes"`
		Speedup float64 `json:"speedup"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != 2 {
		t.Fatalf("want 2 passes, got %d", len(rep.Passes))
	}
	off, on := rep.Passes[0], rep.Passes[1]
	if off.Name != "off" || on.Name != "on" {
		t.Fatalf("pass order: %q %q", off.Name, on.Name)
	}
	if off.Ops == 0 || on.Ops == 0 {
		t.Fatalf("empty pass: off=%d on=%d", off.Ops, on.Ops)
	}
	if off.BatchMax != 1 || off.CoalescedReads != 0 || off.AbsorbedWrites != 0 {
		t.Fatalf("pipeline-off pass used the pipeline: %+v", off)
	}
	if on.BatchMax < 2 {
		t.Fatalf("pipeline-on pass never batched: max %d", on.BatchMax)
	}
	if on.AbsorbedWrites == 0 {
		t.Fatal("pipeline-on pass absorbed no writes")
	}
	if on.FsyncsPerWrite >= 1 {
		t.Fatalf("fsyncs per acked write %.2f, want < 1", on.FsyncsPerWrite)
	}
	if rep.Speedup <= 0 {
		t.Fatalf("speedup %.2f", rep.Speedup)
	}
}

// TestSHShards runs the sharding sweep at CI scale and checks the report
// invariants: one pass per group count in order, every pass completes ops,
// the per-group split is present and balanced (no group starved), and
// aggregate ops/sec never decreases as groups are added. The ~linear
// scaling magnitude is asserted on the committed full run (BENCH_shards.json
// and the CI jq checks), not here — quick mode is too short to pin a ratio.
func TestSHShards(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sh.json")
	tbl, err := SHShards(Options{Quick: true, Seed: 1, JSONOut: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(tbl.Rows))
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Passes []struct {
			Shards    int     `json:"shards"`
			Ops       int64   `json:"ops"`
			OpsPerSec float64 `json:"ops_per_sec"`
			GroupOps  []int64 `json:"group_ops"`
		} `json:"passes"`
		Scaling3x float64 `json:"scaling_3x"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != 3 {
		t.Fatalf("want 3 passes, got %d", len(rep.Passes))
	}
	prev := 0.0
	for i, p := range rep.Passes {
		if p.Shards != i+1 {
			t.Fatalf("pass %d has shards=%d", i, p.Shards)
		}
		if p.Ops == 0 {
			t.Fatalf("pass %d completed no ops", i)
		}
		if len(p.GroupOps) != p.Shards {
			t.Fatalf("pass %d: %d group splits for %d shards", i, len(p.GroupOps), p.Shards)
		}
		var min, max int64 = p.GroupOps[0], p.GroupOps[0]
		for _, n := range p.GroupOps {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if min == 0 || max > 2*min {
			t.Fatalf("pass %d group split unbalanced: %v", i, p.GroupOps)
		}
		// Monotone up to 25% jitter between adjacent passes: quick passes
		// are 500ms and adjacent shard counts differ by little at that
		// budget. The robust scaling signal is the 3-vs-1 ratio below; the
		// real near-linear bar lives on the committed full run. Both are
		// skipped under the race detector, whose instrumentation makes the
		// CPU (not the modeled fsync cost) the bottleneck and can invert
		// quick-mode scaling entirely.
		if !raceEnabled && p.OpsPerSec < 0.75*prev {
			t.Fatalf("aggregate ops/sec fell when adding a group: %.0f after %.0f", p.OpsPerSec, prev)
		}
		prev = p.OpsPerSec
	}
	if !raceEnabled && rep.Scaling3x < 1.2 {
		t.Fatalf("3-group scaling %.2f, want >= 1.2", rep.Scaling3x)
	}
}

// TestBYByzantineCost runs the Byzantine validation experiment at CI scale
// and checks its verdicts rather than its (runner-noisy) latency ratios:
// three passes, every history linearizable, no corrupted reads anywhere,
// zero false suspicions in the honest passes, and a nonzero suspected-liar
// counter (with covering confirm rounds) exactly in the attack pass.
func TestBYByzantineCost(t *testing.T) {
	out := filepath.Join(t.TempDir(), "byz.json")
	tbl, err := BYByzantineCost(Options{Quick: true, Seed: 1, JSONOut: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(tbl.Rows))
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep byzReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != 3 {
		t.Fatalf("want 3 passes, got %d", len(rep.Passes))
	}
	f0, f1, atk := rep.Passes[0], rep.Passes[1], rep.Passes[2]
	if f0.Name != "f0-honest" || f1.Name != "f1-honest" || atk.Name != "f1-attack" {
		t.Fatalf("pass order: %q %q %q", f0.Name, f1.Name, atk.Name)
	}
	for _, p := range rep.Passes {
		if p.Ops == 0 {
			t.Fatalf("pass %s ran no ops", p.Name)
		}
		if !p.Linearizable {
			t.Fatalf("pass %s history not linearizable", p.Name)
		}
		if p.Corrupted != 0 {
			t.Fatalf("pass %s returned %d corrupted reads", p.Name, p.Corrupted)
		}
	}
	if f0.QuorumSize != 3 || f1.QuorumSize != 4 {
		t.Fatalf("quorum sizes %d/%d, want 3 (majority) and 4 (masking)", f0.QuorumSize, f1.QuorumSize)
	}
	if f0.ByzRejects != 0 || f1.ByzRejects != 0 {
		t.Fatalf("honest passes suspected liars: f0=%d f1=%d", f0.ByzRejects, f1.ByzRejects)
	}
	if f0.ByzConfirms != 0 {
		t.Fatalf("f=0 pass ran %d confirm rounds with validation off", f0.ByzConfirms)
	}
	if atk.ByzRejects == 0 {
		t.Fatal("attack pass rejected no lies")
	}
	if atk.ByzConfirms < atk.ByzRejects {
		t.Fatalf("confirms %d < rejects %d: a reject without its confirm round", atk.ByzConfirms, atk.ByzRejects)
	}
}

// TestFPFastPath runs the fast-path experiment at CI scale and checks the
// report invariants: two passes in order, every pass completes reads
// under live write contention, the two-phase pass takes no fast reads,
// the fast-path pass gets hits and skips write-backs, and its p50 does not
// exceed the two-phase p50. The >= 1.5x speedup and >= 50% hit-rate bars
// are pinned on the committed full run (BENCH_fastpath.json and the CI jq
// checks), not here — quick mode is too short for stable ratios.
func TestFPFastPath(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fp.json")
	tbl, err := FPFastPath(Options{Quick: true, Seed: 1, JSONOut: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tbl.Rows))
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep fastpathReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != schemaFastpath {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Passes) != 2 {
		t.Fatalf("want 2 passes, got %d", len(rep.Passes))
	}
	base, fast := rep.Passes[0], rep.Passes[1]
	if base.Name != "two-phase" || fast.Name != "fast-path" {
		t.Fatalf("pass order: %q %q", base.Name, fast.Name)
	}
	for _, p := range rep.Passes {
		if p.Reads == 0 {
			t.Fatalf("pass %s completed no reads", p.Name)
		}
		if p.Writes == 0 {
			t.Fatalf("pass %s had no write contention", p.Name)
		}
	}
	if base.FastPathReads != 0 {
		t.Fatalf("fast path fired with ReadTwoPhase: %d", base.FastPathReads)
	}
	if fast.FastPathReads == 0 {
		t.Fatal("fast-path pass took no fast reads")
	}
	if fast.WriteBacksSkipped == 0 {
		t.Fatal("fast-path pass skipped no write-backs")
	}
	// Fast reads pay 1 round, slow ones 2+: the identity holds per client,
	// so it holds on the sum.
	if fast.ReadRounds >= 2*fast.Reads {
		t.Fatalf("fast pass ReadRounds %d not below 2x reads %d", fast.ReadRounds, fast.Reads)
	}
	if rep.Speedup <= 0 || rep.FastHitRate <= 0 {
		t.Fatalf("speedup %.2f, hit rate %.2f", rep.Speedup, rep.FastHitRate)
	}
	if !raceEnabled && fast.P50US > base.P50US {
		t.Fatalf("fast-path p50 %.0fus above two-phase p50 %.0fus", fast.P50US, base.P50US)
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
