package core

import (
	"repro/internal/timestamp"
	"repro/internal/types"
)

// Measurement hooks for the repository benchmark's layer probes
// (bench/probes.go: wire.seal_* and wire.open_*). The wire codec lives on
// the unexported message type; these helpers expose exactly the two codec
// paths the probes time — sealing a request and opening a payload —
// without widening the protocol API.

// EncodeWriteRequest builds the on-wire payload of one KindWrite request
// carrying an unbounded (seq, writer) tag, byte-identical to what a
// client's update or write-back phase sends. op is the operation
// multiplexing id echoed by the ack.
func EncodeWriteRequest(op uint64, reg string, seq int64, writer types.NodeID, val types.Value) []byte {
	m := message{
		Kind: KindWrite,
		Op:   op,
		Reg:  reg,
		Tag:  Tag{Valid: true, TS: timestamp.TS{Seq: seq, Writer: writer}},
		Val:  val,
	}
	return m.encode()
}

// DecodeKind runs the full receive-side codec path — CRC envelope open plus
// message parse, exactly what a replica or client does per delivery — and
// returns the decoded kind.
func DecodeKind(payload []byte) (Kind, error) {
	m, err := decodeMessage(payload)
	if err != nil {
		return 0, err
	}
	return m.Kind, nil
}
