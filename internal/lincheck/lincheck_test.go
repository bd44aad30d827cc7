package lincheck

import (
	"slices"
	"testing"

	"repro/internal/history"
)

// h builds an op with explicit times for hand-crafted histories.
func h(client int, kind history.Kind, value string, inv, ret int64) history.Op {
	var v []byte
	if value != "" {
		v = []byte(value)
	}
	return history.Op{Client: client, Kind: kind, Value: v, Inv: inv, Ret: ret}
}

func check(t *testing.T, ops []history.Op) Result {
	t.Helper()
	return CheckRegister(ops, Config{})
}

func TestEmptyHistory(t *testing.T) {
	if got := check(t, nil); got.Outcome != Linearizable {
		t.Fatalf("empty: %v", got.Outcome)
	}
}

func TestSequentialHistory(t *testing.T) {
	ops := []history.Op{
		h(1, history.Write, "a", 1, 2),
		h(1, history.Read, "a", 3, 4),
		h(1, history.Write, "b", 5, 6),
		h(1, history.Read, "b", 7, 8),
	}
	res := check(t, ops)
	if res.Outcome != Linearizable {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	if len(res.Witness) != 4 {
		t.Fatalf("witness: %v", res.Witness)
	}
}

func TestReadOfInitialState(t *testing.T) {
	ops := []history.Op{
		h(1, history.Read, "", 1, 2), // reads nil: fine before any write
		h(2, history.Write, "a", 3, 4),
	}
	if got := check(t, ops); got.Outcome != Linearizable {
		t.Fatalf("outcome: %v", got.Outcome)
	}
}

func TestStaleSequentialReadRejected(t *testing.T) {
	ops := []history.Op{
		h(1, history.Write, "a", 1, 2),
		h(1, history.Write, "b", 3, 4),
		h(2, history.Read, "a", 5, 6), // strictly after write b: stale
	}
	if got := check(t, ops); got.Outcome != NotLinearizable {
		t.Fatalf("outcome: %v", got.Outcome)
	}
}

func TestConcurrentReadMaySeeEitherValue(t *testing.T) {
	// Read overlaps the write: both old and new values are acceptable.
	for _, readVal := range []string{"", "b"} {
		ops := []history.Op{
			h(1, history.Write, "b", 1, 4),
			h(2, history.Read, readVal, 2, 3),
		}
		if got := check(t, ops); got.Outcome != Linearizable {
			t.Fatalf("read %q during write: %v", readVal, got.Outcome)
		}
	}
}

func TestNewOldInversionRejected(t *testing.T) {
	// The atomicity violation the write-back prevents: reader A sees the
	// new value, then reader B — strictly after A — sees the old one.
	ops := []history.Op{
		h(1, history.Write, "old", 1, 2),
		h(1, history.Write, "new", 3, 10),
		h(2, history.Read, "new", 4, 5),
		h(3, history.Read, "old", 6, 7), // after the "new" read returned
	}
	if got := check(t, ops); got.Outcome != NotLinearizable {
		t.Fatalf("new/old inversion accepted: %v", got.Outcome)
	}
}

func TestRegularButNotAtomicAccepted_WhenOrderAllows(t *testing.T) {
	// Same shape but the reads overlap: now both orders are possible and
	// the history is linearizable.
	ops := []history.Op{
		h(1, history.Write, "old", 1, 2),
		h(1, history.Write, "new", 3, 10),
		h(2, history.Read, "new", 4, 8),
		h(3, history.Read, "old", 5, 9), // overlaps the other read
	}
	if got := check(t, ops); got.Outcome != Linearizable {
		t.Fatalf("outcome: %v", got.Outcome)
	}
}

func TestReadMustNotSeeValueNeverWritten(t *testing.T) {
	ops := []history.Op{
		h(1, history.Write, "a", 1, 2),
		h(2, history.Read, "ghost", 3, 4),
	}
	if got := check(t, ops); got.Outcome != NotLinearizable {
		t.Fatalf("phantom read accepted: %v", got.Outcome)
	}
}

func TestPendingWriteMayTakeEffect(t *testing.T) {
	// A crashed write whose value a later read observes: linearizable via
	// the completion that includes the pending write.
	ops := []history.Op{
		h(1, history.Write, "a", 1, 2),
		h(2, history.Write, "b", 3, 0), // pending forever
		h(3, history.Read, "b", 5, 6),
	}
	if got := check(t, ops); got.Outcome != Linearizable {
		t.Fatalf("pending write's effect rejected: %v", got.Outcome)
	}
}

func TestPendingWriteMayVanish(t *testing.T) {
	// A crashed write nobody observed: linearizable via the completion that
	// drops it.
	ops := []history.Op{
		h(1, history.Write, "a", 1, 2),
		h(2, history.Write, "b", 3, 0), // pending, never seen
		h(3, history.Read, "a", 5, 6),
		h(3, history.Read, "a", 7, 8),
	}
	if got := check(t, ops); got.Outcome != Linearizable {
		t.Fatalf("vanishing pending write rejected: %v", got.Outcome)
	}
}

func TestPendingReadIgnored(t *testing.T) {
	ops := []history.Op{
		h(1, history.Write, "a", 1, 2),
		h(2, history.Read, "", 3, 0), // crashed mid-read: no obligation
		h(3, history.Read, "a", 5, 6),
	}
	if got := check(t, ops); got.Outcome != Linearizable {
		t.Fatalf("pending read broke the check: %v", got.Outcome)
	}
}

func TestWitnessIsValidLinearization(t *testing.T) {
	ops := []history.Op{
		h(1, history.Write, "a", 1, 5),
		h(2, history.Read, "a", 2, 6),
		h(1, history.Write, "b", 7, 9),
		h(2, history.Read, "b", 8, 10),
	}
	res := check(t, ops)
	if res.Outcome != Linearizable {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	// Replay the witness: it must respect the register semantics.
	state := ""
	for _, idx := range res.Witness {
		op := ops[idx]
		if op.Kind == history.Write {
			state = string(op.Value)
		} else if string(op.Value) != state {
			t.Fatalf("witness replay: read %q with state %q", op.Value, state)
		}
	}
	// And real-time order: if op A returned before op B was invoked, A must
	// appear first.
	pos := make(map[int]int)
	for i, idx := range res.Witness {
		pos[idx] = i
	}
	for i := range ops {
		for j := range ops {
			if ops[i].Ret < ops[j].Inv && pos[i] > pos[j] {
				t.Fatalf("witness violates real-time order: %d after %d", i, j)
			}
		}
	}
}

func TestLongAlternatingHistoryFast(t *testing.T) {
	// A long sequential history must check quickly (the cache prevents
	// exponential blowup).
	var ops []history.Op
	tm := int64(1)
	for i := 0; i < 300; i++ {
		v := string(rune('a' + i%26))
		ops = append(ops, h(1, history.Write, v, tm, tm+1))
		ops = append(ops, h(2, history.Read, v, tm+2, tm+3))
		tm += 4
	}
	if got := check(t, ops); got.Outcome != Linearizable {
		t.Fatalf("outcome: %v", got.Outcome)
	}
}

func TestHighlyConcurrentWindow(t *testing.T) {
	// Ten overlapping writers and a read that must match one of them.
	var ops []history.Op
	for i := 0; i < 10; i++ {
		ops = append(ops, h(i, history.Write, string(rune('a'+i)), int64(i+1), 100))
	}
	ops = append(ops, h(99, history.Read, "e", 101, 102))
	if got := check(t, ops); got.Outcome != Linearizable {
		t.Fatalf("outcome: %v", got.Outcome)
	}
	// And a read of a value from a writer that cannot be last does not
	// exist here — instead check an impossible read.
	ops[len(ops)-1] = h(99, history.Read, "zz", 101, 102)
	if got := check(t, ops); got.Outcome != NotLinearizable {
		t.Fatalf("impossible read accepted: %v", got.Outcome)
	}
}

func TestMaxOpsBudget(t *testing.T) {
	var ops []history.Op
	for i := 0; i < 20; i++ {
		ops = append(ops, h(1, history.Write, "v", int64(2*i+1), int64(2*i+2)))
	}
	got := CheckRegister(ops, Config{MaxOps: 10})
	if got.Outcome != Unknown {
		t.Fatalf("oversized history: %v", got.Outcome)
	}
}

func TestTooManyPendingWrites(t *testing.T) {
	var ops []history.Op
	for i := 0; i < 13; i++ {
		ops = append(ops, h(i, history.Write, "v", int64(i+1), 0))
	}
	if got := check(t, ops); got.Outcome != Unknown {
		t.Fatalf("13 pending writes: %v", got.Outcome)
	}
}

func TestCheckRegistersCompositional(t *testing.T) {
	// Two registers: x's sub-history is fine, y's has a stale read. The
	// multi-register checker must localize the failure to y.
	ops := []history.Op{
		{Client: 1, Kind: history.Write, Reg: "x", Value: []byte("a"), Inv: 1, Ret: 2},
		{Client: 2, Kind: history.Read, Reg: "x", Value: []byte("a"), Inv: 3, Ret: 4},
		{Client: 1, Kind: history.Write, Reg: "y", Value: []byte("1"), Inv: 5, Ret: 6},
		{Client: 1, Kind: history.Write, Reg: "y", Value: []byte("2"), Inv: 7, Ret: 8},
		{Client: 2, Kind: history.Read, Reg: "y", Value: []byte("1"), Inv: 9, Ret: 10}, // stale
	}
	results := CheckRegisters(ops, Config{})
	if got := results["x"].Outcome; got != Linearizable {
		t.Errorf("x: %v", got)
	}
	if got := results["y"].Outcome; got != NotLinearizable {
		t.Errorf("y: %v", got)
	}
	if AllLinearizable(results) != NotLinearizable {
		t.Error("overall outcome should be NotLinearizable")
	}
}

// TestCheckRegistersWitnessIndexesInput: each register's witness names
// operations by their index in the history CheckRegisters was given, so a
// caller can print ops[idx] for any register.
func TestCheckRegistersWitnessIndexesInput(t *testing.T) {
	ops := []history.Op{
		{Client: 1, Kind: history.Write, Reg: "a", Value: []byte("1"), Inv: 1, Ret: 2},
		{Client: 2, Kind: history.Write, Reg: "b", Value: []byte("2"), Inv: 3, Ret: 4},
		{Client: 3, Kind: history.Read, Reg: "b", Value: []byte("2"), Inv: 5, Ret: 6},
	}
	want := map[string][]int{"a": {0}, "b": {1, 2}}
	for reg, res := range CheckRegisters(ops, Config{}) {
		if res.Outcome != Linearizable {
			t.Fatalf("register %q: %v", reg, res.Outcome)
		}
		if !slices.Equal(res.Witness, want[reg]) {
			t.Errorf("register %q witness %v, want %v (indexes into ops)", reg, res.Witness, want[reg])
		}
	}
}

func TestCheckRegistersAllGood(t *testing.T) {
	ops := []history.Op{
		{Client: 1, Kind: history.Write, Reg: "a", Value: []byte("v"), Inv: 1, Ret: 2},
		{Client: 1, Kind: history.Read, Reg: "a", Value: []byte("v"), Inv: 3, Ret: 4},
		{Client: 1, Kind: history.Read, Reg: "b", Value: nil, Inv: 5, Ret: 6},
	}
	results := CheckRegisters(ops, Config{})
	if AllLinearizable(results) != Linearizable {
		t.Fatalf("results: %v", results)
	}
	if len(results) != 2 {
		t.Fatalf("register groups: %d", len(results))
	}
}

func TestCheckRegistersEmpty(t *testing.T) {
	if got := AllLinearizable(CheckRegisters(nil, Config{})); got != Linearizable {
		t.Fatalf("empty: %v", got)
	}
}

// TestCompositionalityMatchesCombined cross-validates the per-register
// split against checking the combined history with values disambiguated by
// register (which makes the single-object check equivalent).
func TestCompositionalityMatchesCombined(t *testing.T) {
	ops := []history.Op{
		{Client: 1, Kind: history.Write, Reg: "x", Value: []byte("xa"), Inv: 1, Ret: 4},
		{Client: 2, Kind: history.Write, Reg: "y", Value: []byte("ya"), Inv: 2, Ret: 5},
		{Client: 3, Kind: history.Read, Reg: "x", Value: []byte("xa"), Inv: 6, Ret: 8},
		{Client: 3, Kind: history.Read, Reg: "y", Value: []byte("ya"), Inv: 9, Ret: 11},
	}
	split := AllLinearizable(CheckRegisters(ops, Config{}))
	if split != Linearizable {
		t.Fatalf("split: %v", split)
	}
}
