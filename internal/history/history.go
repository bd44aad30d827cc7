// Package history records concurrent register operations with logical
// invocation/response times so the linearizability checker (internal/
// lincheck) can verify the paper's atomicity claim on real executions.
//
// Times come from a single atomic counter, which yields a valid real-time
// partial order: operation A precedes operation B iff A's response was
// recorded before B's invocation.
package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes reads from writes.
type Kind int

// Operation kinds.
const (
	Read Kind = iota + 1
	Write
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one completed (or pending) register operation.
type Op struct {
	// Client identifies the invoking process; operations of one client
	// never overlap.
	Client int  `json:"client"`
	Kind   Kind `json:"kind"`
	// Reg names the register the operation targets. Histories over a single
	// register may leave it empty. Linearizability is compositional, so the
	// checker verifies each register's sub-history independently
	// (lincheck.CheckRegisters).
	Reg string `json:"reg,omitempty"`
	// Value is the written value for writes and the returned value for
	// reads. nil means the initial register state (JSON null, as opposed to
	// "" for a written empty value).
	Value []byte `json:"value"`
	// Inv and Ret are logical times. Ret == 0 marks a pending operation
	// that never completed (e.g. the client crashed mid-write).
	Inv int64 `json:"inv"`
	Ret int64 `json:"ret,omitempty"`
}

// Pending reports whether the operation never completed.
func (o Op) Pending() bool { return o.Ret == 0 }

// Recorder collects operations from concurrent clients.
type Recorder struct {
	clock atomic.Int64

	mu  sync.Mutex
	ops []Op
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// PendingOp is an invocation waiting for its response to be recorded.
type PendingOp struct {
	r  *Recorder
	op Op
}

// BeginRead records a read invocation by client (single-register history).
func (r *Recorder) BeginRead(client int) *PendingOp {
	return r.BeginReadReg(client, "")
}

// BeginWrite records a write invocation by client with the value it writes
// (single-register history).
func (r *Recorder) BeginWrite(client int, value []byte) *PendingOp {
	return r.BeginWriteReg(client, "", value)
}

// BeginReadReg records a read invocation against a named register.
func (r *Recorder) BeginReadReg(client int, reg string) *PendingOp {
	return &PendingOp{r: r, op: Op{Client: client, Kind: Read, Reg: reg, Inv: r.clock.Add(1)}}
}

// BeginWriteReg records a write invocation against a named register.
func (r *Recorder) BeginWriteReg(client int, reg string, value []byte) *PendingOp {
	return &PendingOp{r: r, op: Op{Client: client, Kind: Write, Reg: reg, Value: cloneValue(value), Inv: r.clock.Add(1)}}
}

// EndRead completes a read with the value it returned.
func (p *PendingOp) EndRead(value []byte) {
	p.op.Value = cloneValue(value)
	p.op.Ret = p.r.clock.Add(1)
	p.r.add(p.op)
}

// cloneValue copies v, preserving the nil/empty distinction (nil is the
// initial register state).
func cloneValue(v []byte) []byte {
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// EndWrite completes a write.
func (p *PendingOp) EndWrite() {
	p.op.Ret = p.r.clock.Add(1)
	p.r.add(p.op)
}

// Crash records the operation as pending forever: its effect may or may not
// have taken place. The checker treats pending writes as free to linearize
// anywhere after their invocation, or to drop.
func (p *PendingOp) Crash() {
	p.op.Ret = 0
	p.r.add(p.op)
}

func (r *Recorder) add(op Op) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Ops returns the recorded operations sorted by invocation time.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	out := make([]Op, len(r.ops))
	copy(out, r.ops)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Inv < out[j].Inv })
	return out
}

// Len returns the number of recorded operations.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// WriteJSON writes the history as JSON lines, one operation per line — the
// format abd-sim -in checks.
func WriteJSON(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, op := range ops {
		if err := enc.Encode(op); err != nil {
			return fmt.Errorf("encode op %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSON parses a JSON-lines history.
func ReadJSON(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var op Op
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			return nil, fmt.Errorf("history line %d: %w", line, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("history read: %w", err)
	}
	return ops, nil
}
