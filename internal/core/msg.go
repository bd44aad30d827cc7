// Package core implements the paper's primary contribution: emulating
// atomic read/write registers on an asynchronous message-passing system
// where any minority of processors may crash.
//
// The protocol is the one sketched in the paper (and in Attiya's account in
// the supplied column): every processor keeps a timestamped copy of each
// register; a write sends the new value to all and awaits a write quorum of
// acknowledgements; a read queries all (this package asks one read quorum,
// see Client), awaits a read quorum, adopts the pair with the largest
// timestamp, and writes that pair back to a write quorum before returning. The write-back is what makes reads atomic rather
// than merely regular.
//
// The package supports the single-writer protocol (local sequence numbers,
// one round trip per write), the multi-writer extension (a query phase
// before each write, (seq, writer) lexicographic timestamps), generalized
// quorum systems, one-round fast-path reads (skip the write-back when the
// query replies prove the pair is already at a write quorum; DESIGN.md
// §10), an intentionally unsafe no-write-back mode
// used to demonstrate non-atomicity (experiment T3), and a bounded-label
// mode (experiment T4).
package core

import (
	"fmt"

	"repro/internal/timestamp"
	"repro/internal/types"
	"repro/internal/wire"
)

// Kind tags every protocol message; it is the first payload byte, which the
// simulated network uses to meter message complexity per kind (T1).
type Kind byte

// Protocol message kinds.
const (
	// KindReadQuery asks a replica for its current (timestamp, value) pair.
	// Sent in a read's first phase and by QueryMax, which internal/reconfig's
	// reads query with.
	KindReadQuery Kind = 0x01
	// KindReadReply answers a KindReadQuery or a KindTagQuery.
	KindReadReply Kind = 0x02
	// KindWrite asks a replica to adopt a (timestamp, value) pair if it is
	// newer than the replica's. Sent by writes and by read write-backs.
	KindWrite Kind = 0x03
	// KindWriteAck acknowledges a KindWrite.
	KindWriteAck Kind = 0x04
	// KindTagQuery asks a replica for its current timestamp only: the reply
	// is a KindReadReply with a nil value. Sent in a write's query phase,
	// which needs the newest timestamp and throws the value away, and by
	// QueryTag, which internal/reconfig's writes query with.
	KindTagQuery Kind = 0x05
)

// String names the kind for stats output.
func (k Kind) String() string {
	switch k {
	case KindReadQuery:
		return "ReadQuery"
	case KindReadReply:
		return "ReadReply"
	case KindWrite:
		return "Write"
	case KindWriteAck:
		return "WriteAck"
	case KindTagQuery:
		return "TagQuery"
	default:
		return fmt.Sprintf("Kind(%#02x)", byte(k))
	}
}

// reply is the kind of message that answers a request of kind k: a
// KindWriteAck for a KindWrite, a KindReadReply for either query.
func (k Kind) reply() Kind {
	if k == KindWrite {
		return KindWriteAck
	}
	return KindReadReply
}

// Tag orders the versions of a register value. Window is the label window
// the tag was issued under: 0 for the paper's unbounded timestamps, whose
// TS field carries the (sequence, writer) pair, and L >= 1 for a bounded
// tag, whose Label field carries a position in the cyclic domain Z_{3L}
// (timestamp.Cyclic). Valid distinguishes a written version from the
// initial register state, which is older than everything.
type Tag struct {
	Valid  bool
	TS     timestamp.TS
	Window int64
	Label  int64
}

// compare returns -1/0/+1 as t is older/equal/newer than u. The initial
// state is older than every written tag; two written tags order only under
// one window: lexicographic (seq, writer) when unbounded, cyclic distance
// when bounded. It fails when the windows differ and, for bounded labels,
// outside the sound comparison window (timestamp.ErrOutOfWindow).
func (t Tag) compare(u Tag) (int, error) {
	switch {
	case !t.Valid && !u.Valid:
		return 0, nil
	case !t.Valid:
		return -1, nil
	case !u.Valid:
		return 1, nil
	case t.Window != u.Window:
		return 0, fmt.Errorf("%w: label windows %d and %d differ", types.ErrBadMessage, t.Window, u.Window)
	case t.Window == 0:
		return t.TS.Compare(u.TS), nil
	}
	return timestamp.Cyclic{L: t.Window}.Compare(t.Label, u.Label)
}

// message is the single on-wire shape shared by all five kinds; queries and
// acks simply leave the tag and value fields empty, and so does a reply to a
// tag query its value.
type message struct {
	Kind Kind
	Op   uint64 // matches replies to the client's in-flight operation
	Reg  string // register name; one replica group hosts many registers
	Tag  Tag
	Val  types.Value

	// Trace and Span form the Dapper-style trace context: Trace groups
	// every message caused by one client operation, Span is the emitting
	// side's span (the phase span on requests, the replica's handle span on
	// replies) so receiver-side spans can parent to it. Both zero means the
	// message is untraced and encodes in the pre-trace wire format.
	Trace uint64
	Span  uint64

	// fromReplica is filled in locally on receipt (from the transport
	// envelope); it is not part of the wire format.
	fromReplica types.NodeID
}

// encode serializes m with the layout
// [kind][op][entry]{[trace][span]}[crc32], entry being appendEntry's
// [reg][valid][seq][writer][window][label][val].
// The optional trace-context trailer and the trailing IEEE CRC32 are the
// wire envelope (see internal/wire): traced payloads set the high bit of the
// kind byte, untraced ones are byte-identical to the pre-trace format, so a
// traced client interoperates with an untraced peer and vice versa. Every
// other kind-byte bit belongs to the kind. The CRC covers every preceding
// byte: a payload flipped in transit fails decode and is dropped like a
// lost message, which the protocol already tolerates (all messages are
// idempotent and clients retransmit).
// Without it, a bit-flip inside the value bytes would decode cleanly and
// poison a register with a value nobody wrote — found by the nemesis
// harness under chaos corrupt faults.
func (m message) encode() []byte {
	b := make([]byte, 0, 48+len(m.Reg)+len(m.Val))
	b = append(b, byte(m.Kind))
	b = wire.AppendUint(b, m.Op)
	b = appendEntry(b, m.Reg, m.Tag, m.Val)
	return wire.Seal(b, m.Trace, m.Span)
}

// decodeMessage parses a payload produced by encode, rejecting any whose
// checksum does not match. The message's value is a view of payload.
func decodeMessage(payload []byte) (message, error) {
	body, trace, span, err := wire.Open(payload)
	if err != nil {
		return message{}, err
	}
	if len(body) < 1 {
		return message{}, fmt.Errorf("%w: empty body", types.ErrBadMessage)
	}
	r := wire.NewReader(body[1:])
	// The kind byte's high bit is the envelope's trace flag, not part of the
	// kind; Open leaves it set (it never mutates the payload).
	m := message{Kind: Kind(body[0] &^ wire.TraceFlag), Trace: trace, Span: span}
	m.Op = r.Uint()
	if m.Reg, m.Tag, m.Val, err = readEntry(r); err != nil {
		return message{}, err
	}
	switch m.Kind {
	case KindReadQuery, KindReadReply, KindWrite, KindWriteAck, KindTagQuery:
	default:
		return message{}, fmt.Errorf("%w: unknown kind %#02x", types.ErrBadMessage, byte(m.Kind))
	}
	return m, nil
}

// appendEntry appends the (register, tag, value) fields that a protocol
// message and a WAL record share, in their one order. Window is a zig-zag
// varint, so an unbounded tag's 0 is the single byte 0x00.
func appendEntry(b []byte, reg string, tag Tag, val types.Value) []byte {
	b = wire.AppendString(b, reg)
	b = wire.AppendBool(b, tag.Valid)
	b = wire.AppendInt(b, tag.TS.Seq)
	b = wire.AppendInt(b, int64(tag.TS.Writer))
	b = wire.AppendInt(b, tag.Window)
	b = wire.AppendInt(b, tag.Label)
	return wire.AppendBytes(b, val)
}

// readEntry reads what appendEntry wrote, and reports the reader's first
// error. A negative window is malformed: no mode issues one. The value is a
// view of r's buffer, not a copy (DESIGN.md §6, "Who owns a payload"): a
// caller that reuses the buffer must copy the value it keeps.
func readEntry(r *wire.Reader) (reg string, tag Tag, val types.Value, err error) {
	reg = r.String()
	tag.Valid = r.Bool()
	tag.TS.Seq = r.Int()
	tag.TS.Writer = types.NodeID(r.Int())
	tag.Window = r.Int()
	tag.Label = r.Int()
	val = r.View()
	if err := r.Err(); err != nil {
		return "", Tag{}, nil, err
	}
	if tag.Window < 0 {
		return "", Tag{}, nil, fmt.Errorf("%w: label window %d", types.ErrBadMessage, tag.Window)
	}
	return reg, tag, val, nil
}
