// Package lincheck decides whether a recorded history of register
// operations is linearizable — the correctness condition ("atomicity") the
// paper's emulation guarantees. It implements the Wing–Gong algorithm with
// Lowe's optimizations (state caching and entry lifting), specialized to a
// single read/write register.
//
// The checker is used two ways in this repository: as the oracle in the T3
// experiment (ABD histories pass; the no-write-back variant's histories
// exhibit new/old inversions and fail) and as the engine of abd-sim's verdicts.
package lincheck

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/history"
)

// Outcome is the checker's verdict.
type Outcome int

// Verdicts.
const (
	// Linearizable: a witness order exists.
	Linearizable Outcome = iota + 1
	// NotLinearizable: no order exists (proved by exhaustion).
	NotLinearizable
	// Unknown: the search hit its time or size budget.
	Unknown
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Linearizable:
		return "linearizable"
	case NotLinearizable:
		return "NOT linearizable"
	case Unknown:
		return "unknown (budget exhausted)"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result carries the verdict and, when linearizable, a witness: the indexes
// of the operations (into the checked slice) in linearization order.
type Result struct {
	Outcome Outcome
	// Witness is a valid linearization order when the outcome is
	// Linearizable: indexes into the slice given to CheckRegister or
	// CheckRegisters (never into a per-register sub-history).
	Witness []int
	// StatesExplored counts search configurations visited.
	StatesExplored int64
}

// Config bounds the search.
type Config struct {
	// Timeout bounds wall-clock search time; zero means 30s.
	Timeout time.Duration
	// MaxOps rejects oversized histories with Unknown; zero means 4096.
	MaxOps int
}

// CheckRegister decides linearizability of ops against a single register
// with initial value nil.
//
// Pending operations (Ret == 0) are handled as the model requires: a
// pending read imposes no obligation and is dropped; a pending write may
// have taken effect at any point after its invocation or not at all, so the
// checker tries completions. With k pending writes this costs up to 2^k
// searches; k is capped at 12.
func CheckRegister(ops []history.Op, cfg Config) Result {
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxOps == 0 {
		cfg.MaxOps = 4096
	}
	if len(ops) > cfg.MaxOps {
		return Result{Outcome: Unknown}
	}
	deadline := time.Now().Add(cfg.Timeout)

	// Partition complete vs pending.
	var complete []history.Op
	var completeIdx []int
	var pendingWrites []history.Op
	var pendingIdx []int
	maxTime := int64(0)
	for i, op := range ops {
		if op.Ret > maxTime {
			maxTime = op.Ret
		}
		if op.Inv > maxTime {
			maxTime = op.Inv
		}
		switch {
		case !op.Pending():
			complete = append(complete, op)
			completeIdx = append(completeIdx, i)
		case op.Kind == history.Write:
			pendingWrites = append(pendingWrites, op)
			pendingIdx = append(pendingIdx, i)
		default:
			// Pending read: no obligation.
		}
	}

	if len(pendingWrites) > 12 {
		return Result{Outcome: Unknown}
	}

	// Try completions: for each subset of pending writes, include them with
	// a response at the end of time (they may take effect anywhere after
	// invocation). Start with the full set — the common case where
	// "pending" writes did reach a quorum — then fall back to smaller
	// subsets.
	var total Result
	for mask := (1 << len(pendingWrites)) - 1; mask >= 0; mask-- {
		trial := make([]history.Op, len(complete), len(complete)+len(pendingWrites))
		trialIdx := make([]int, len(completeIdx), len(completeIdx)+len(pendingWrites))
		copy(trial, complete)
		copy(trialIdx, completeIdx)
		for b, op := range pendingWrites {
			if mask&(1<<b) != 0 {
				op.Ret = maxTime + 1
				trial = append(trial, op)
				trialIdx = append(trialIdx, pendingIdx[b])
			}
		}
		res := checkComplete(trial, deadline)
		total.StatesExplored += res.StatesExplored
		switch res.Outcome {
		case Linearizable:
			witness := make([]int, len(res.Witness))
			for i, w := range res.Witness {
				witness[i] = trialIdx[w]
			}
			return Result{Outcome: Linearizable, Witness: witness, StatesExplored: total.StatesExplored}
		case Unknown:
			total.Outcome = Unknown
			return total
		}
		if time.Now().After(deadline) {
			total.Outcome = Unknown
			return total
		}
	}
	total.Outcome = NotLinearizable
	return total
}

// CheckRegisters decides linearizability of a multi-register history by
// exploiting compositionality (locality): a history over several objects is
// linearizable iff each object's sub-history is. Operations are grouped by
// Op.Reg and each group is checked independently, which is exponentially
// cheaper than checking the combined history. The result maps each register
// name to its verdict; each Witness indexes ops, not the sub-history.
func CheckRegisters(ops []history.Op, cfg Config) map[string]Result {
	byReg := make(map[string][]history.Op)
	idx := make(map[string][]int)
	for i, op := range ops {
		byReg[op.Reg] = append(byReg[op.Reg], op)
		idx[op.Reg] = append(idx[op.Reg], i)
	}
	out := make(map[string]Result, len(byReg))
	for reg, sub := range byReg {
		res := CheckRegister(sub, cfg)
		for i, w := range res.Witness {
			res.Witness[i] = idx[reg][w]
		}
		out[reg] = res
	}
	return out
}

// AllLinearizable summarizes a CheckRegisters result: the overall outcome
// is NotLinearizable if any register fails, else Unknown if any register
// was undecided, else Linearizable.
func AllLinearizable(results map[string]Result) Outcome {
	outcome := Linearizable
	for _, r := range results {
		switch r.Outcome {
		case NotLinearizable:
			return NotLinearizable
		case Unknown:
			outcome = Unknown
		}
	}
	return outcome
}

// entry is a node in the doubly linked event list: one invocation entry and
// one response entry per operation.
type entry struct {
	id         int // op index; -1 for the head sentinel
	isInv      bool
	value      int // interned value; for reads: returned, for writes: written
	isWrite    bool
	match      *entry // inv -> its response entry
	prev, next *entry
}

func (e *entry) lift() {
	// Unlink the invocation and its response from the list.
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	}
	m := e.match
	m.prev.next = m.next
	if m.next != nil {
		m.next.prev = m.prev
	}
}

func (e *entry) unlift() {
	m := e.match
	m.prev.next = m
	if m.next != nil {
		m.next.prev = m
	}
	e.prev.next = e
	if e.next != nil {
		e.next.prev = e
	}
}

// checkComplete runs Wing–Gong/Lowe on a history with no pending ops.
func checkComplete(ops []history.Op, deadline time.Time) Result {
	if len(ops) == 0 {
		return Result{Outcome: Linearizable}
	}

	// Intern values: nil (initial) is 0.
	intern := map[string]int{}
	valueOf := func(b []byte) int {
		if b == nil {
			return 0
		}
		key := string(b)
		if id, ok := intern[key]; ok {
			return id
		}
		id := len(intern) + 1
		intern[key] = id
		return id
	}

	// Build the event list sorted by time.
	events := make([]event, 0, 2*len(ops))
	for i, op := range ops {
		events = append(events, event{op.Inv, true, i}, event{op.Ret, false, i})
	}
	// Sort by time. Recorder times are unique; on ties (hand-built
	// histories) put responses first, which imposes the strictest real-time
	// order (a response at t precedes an invocation at t).
	sort.Slice(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		return !events[i].isInv && events[j].isInv
	})

	head := &entry{id: -1}
	cur := head
	invEntries := make([]*entry, len(ops))
	for _, ev := range events {
		op := ops[ev.op]
		e := &entry{id: ev.op, isInv: ev.isInv, isWrite: op.Kind == history.Write, value: valueOf(op.Value)}
		cur.next = e
		e.prev = cur
		cur = e
		if ev.isInv {
			invEntries[ev.op] = e
		} else {
			invEntries[ev.op].match = e
		}
	}

	// DFS with caching.
	type frame struct {
		e         *entry
		prevState int
	}
	var (
		stack    []frame
		state    = 0 // interned initial value
		linear   = newBitset(len(ops))
		cache    = map[string]struct{}{}
		explored int64
		witness  []int
	)
	cacheKey := func(state int) string {
		return fmt.Sprintf("%d|%s", state, linear.key())
	}

	e := head.next
	checkTick := 0
	for head.next != nil {
		checkTick++
		if checkTick&0x3FF == 0 && time.Now().After(deadline) {
			return Result{Outcome: Unknown, StatesExplored: explored}
		}
		if e == nil {
			// Reached the end of the current window without linearizing
			// anything: backtrack.
			if len(stack) == 0 {
				return Result{Outcome: NotLinearizable, StatesExplored: explored}
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			state = top.prevState
			linear.clear(top.e.id)
			witness = witness[:len(witness)-1]
			top.e.unlift()
			e = top.e.next
			continue
		}
		if !e.isInv {
			// A response: every operation that responded before this point
			// must already be linearized; hitting a response means the
			// candidate window is exhausted. Backtrack.
			e = nil
			continue
		}
		// Try to linearize op e.
		newState, ok := applyRegister(e, state)
		if ok {
			linear.set(e.id)
			if _, seen := cache[cacheKey(newState)]; !seen {
				cache[cacheKey(newState)] = struct{}{}
				explored++
				stack = append(stack, frame{e, state})
				witness = append(witness, e.id)
				state = newState
				e.lift()
				e = head.next
				continue
			}
			linear.clear(e.id)
		}
		e = e.next
	}
	out := make([]int, len(witness))
	copy(out, witness)
	return Result{Outcome: Linearizable, Witness: out, StatesExplored: explored}
}

// applyRegister applies one op to the register state: writes always apply
// and set the state; reads apply iff they returned the current state.
func applyRegister(e *entry, state int) (int, bool) {
	if e.isWrite {
		return e.value, true
	}
	if e.value == state {
		return state, true
	}
	return 0, false
}

// event is one invocation or response in the sorted event list.
type event struct {
	time  int64
	isInv bool
	op    int
}

// bitset tracks which operations are linearized in the current search path.
type bitset struct {
	words []uint64
}

func newBitset(n int) *bitset {
	return &bitset{words: make([]uint64, (n+63)/64)}
}

func (b *bitset) set(i int)   { b.words[i/64] |= 1 << uint(i%64) }
func (b *bitset) clear(i int) { b.words[i/64] &^= 1 << uint(i%64) }

// key renders the bitset as a compact string for map keys.
func (b *bitset) key() string {
	buf := make([]byte, 8*len(b.words))
	for i, w := range b.words {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(w >> uint(8*j))
		}
	}
	return string(buf)
}
