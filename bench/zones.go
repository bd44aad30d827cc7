package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/history"
)

// zoneCheck decides linearizability of one register's history in
// O(n log n), given that no two writes carry the same value — every value
// this benchmark writes names its own write. It is Gibbons and Korach's
// zone test ("Testing shared memories", SIAM J. Comput. 26(4), 1997), as
// restated by Golab, Li and Shah (PODC 2011).
//
// A write and the reads that returned its value form a cluster. In any
// linearization a cluster is a contiguous block, the write first; the block
// starts no later than the cluster's earliest response and ends no earlier
// than its latest invocation. When the earliest response precedes the
// latest invocation the block must cover the whole interval between them: a
// forward zone. Otherwise every operation of the cluster spans the interval
// from the latest invocation to the earliest response, the block can be a
// point anywhere in it, and that interval is a backward zone. The history is
// linearizable iff no read ends before its write begins, no two forward
// zones overlap, and no backward zone lies inside a forward zone.
//
// internal/lincheck's search is exponential in the number of mutually
// concurrent operations, and one stall of this sandbox piles dozens of them
// on the hottest register. checkHistories gives lincheck its deadline and
// hands zoneCheck the histories lincheck could not decide, so that the
// hottest register is always decided.
//
// Pending operations are treated as lincheck treats them: a pending read
// imposes nothing; a pending write no read observed is taken not to have
// happened; one that was observed never ends.
func zoneCheck(ops []history.Op) error {
	type cluster struct {
		written, observed bool
		writeInv          int64
		minRet, maxInv    int64
	}
	const never = math.MaxInt64
	// The initial state is the value of a write that ended before time
	// began (recorded times start at 1).
	initial := &cluster{written: true, observed: true}
	clusters := map[string]*cluster{}
	for _, op := range ops {
		if op.Kind != history.Write {
			continue
		}
		if clusters[string(op.Value)] != nil {
			return fmt.Errorf("two writes carry the value %x: the zone test needs distinct values", op.Value)
		}
		c := &cluster{written: true, writeInv: op.Inv, minRet: op.Ret, maxInv: op.Inv}
		if op.Pending() {
			c.minRet = never
		}
		clusters[string(op.Value)] = c
	}
	for _, op := range ops {
		if op.Kind != history.Read || op.Pending() {
			continue
		}
		c := initial
		if op.Value != nil {
			if c = clusters[string(op.Value)]; c == nil {
				return fmt.Errorf("a read returned %x, which no write in the history carries", op.Value)
			}
		}
		if op.Ret < c.writeInv {
			return fmt.Errorf("a read of %x ended at %d, before its write began at %d", op.Value, op.Ret, c.writeInv)
		}
		c.observed = true
		c.minRet = min(c.minRet, op.Ret)
		c.maxInv = max(c.maxInv, op.Inv)
	}

	type zone struct{ lo, hi int64 }
	var forward, backward []zone
	add := func(c *cluster) {
		switch {
		case c.minRet == never && !c.observed:
			// a pending write nobody saw
		case c.minRet < c.maxInv:
			forward = append(forward, zone{c.minRet, c.maxInv})
		default:
			backward = append(backward, zone{c.maxInv, c.minRet})
		}
	}
	if initial.maxInv > 0 { // somebody read the initial state
		add(initial)
	}
	for _, c := range clusters {
		add(c)
	}
	sort.Slice(forward, func(i, j int) bool { return forward[i].lo < forward[j].lo })
	for i := 1; i < len(forward); i++ {
		if forward[i].lo < forward[i-1].hi {
			return fmt.Errorf("two values were each current throughout [%d, %d] and [%d, %d]",
				forward[i-1].lo, forward[i-1].hi, forward[i].lo, forward[i].hi)
		}
	}
	for _, b := range backward {
		// Forward zones are disjoint, so only the last one to start at or
		// before b can contain it.
		i := sort.Search(len(forward), func(i int) bool { return forward[i].lo > b.lo }) - 1
		if i >= 0 && b.hi < forward[i].hi {
			return fmt.Errorf("a value was written and read inside [%d, %d] while another was current throughout [%d, %d]",
				b.lo, b.hi, forward[i].lo, forward[i].hi)
		}
	}
	return nil
}
