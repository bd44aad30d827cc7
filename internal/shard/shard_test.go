package shard

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestRingDeterministic pins the router invariant rebalancing reviews rely
// on: the register→group map is a pure function of (groups, vnodes, hash).
// Two independently built rings agree on every name, and the map for a
// fixed configuration is pinned by golden samples — if either ever changes,
// committed shard maps silently move registers between groups.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(3, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(3, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		reg := fmt.Sprintf("reg-%d", i)
		if ga, gb := a.Lookup(reg), b.Lookup(reg); ga != gb {
			t.Fatalf("ring disagreement on %q: %d vs %d", reg, ga, gb)
		}
	}

	// Golden pins for the default configuration (3 groups, default vnodes,
	// FNV-1a). A change here is a breaking change to every committed map.
	golden, err := NewRing(3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"r0": 2, "r1": 0, "r2": 2, "r3": 2, "r4": 2,
		"greeting": 1, "accounts/42": 1, "snap/0": 1,
	}
	for reg, g := range want {
		if got := golden.Lookup(reg); got != g {
			t.Errorf("golden map moved: %q now in group %d, pinned %d", reg, got, g)
		}
	}
}

// TestRingBalance: virtual nodes keep the assignment roughly even — no
// group owns more than twice its fair share of a large uniform namespace.
func TestRingBalance(t *testing.T) {
	const groups, names = 4, 20000
	r, err := NewRing(groups, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, groups)
	for i := 0; i < names; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	fair := names / groups
	for g, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Fatalf("group %d owns %d of %d names (fair share %d): ring too skewed", g, c, names, fair)
		}
	}
}

func TestRingRejectsZeroGroups(t *testing.T) {
	if _, err := NewRing(0, 0, nil); err == nil {
		t.Fatal("NewRing(0) succeeded")
	}
}

// TestTagTracer: the wrapper stamps the 1-based shard tag and forwards.
func TestTagTracer(t *testing.T) {
	col := obs.NewCollector(0)
	tr := Tag(col, 2)
	tr.Emit(obs.Span{Kind: "read"})
	spans := col.Spans()
	if len(spans) != 1 || spans[0].Shard != 3 {
		t.Fatalf("tagged span = %+v, want Shard 3", spans)
	}
	if Tag(nil, 0) != nil {
		t.Fatal("Tag(nil) must stay nil")
	}
}
