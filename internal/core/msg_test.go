package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/timestamp"
	"repro/internal/types"
	"repro/internal/wire"
)

func TestMessageRoundTrip(t *testing.T) {
	tests := []message{
		{Kind: KindReadQuery, Op: 1, Reg: "r"},
		{Kind: KindReadReply, Op: 42, Reg: "account/balance",
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 7, Writer: 3}}, Val: []byte("v7")},
		{Kind: KindWrite, Op: 9, Reg: "x",
			Tag: Tag{Valid: true, Window: 4, Label: 11}, Val: []byte{}},
		{Kind: KindWriteAck, Op: 100000, Reg: ""},
		// Traced variants: the trace context must survive the round trip on
		// every kind, including edge ids.
		{Kind: KindReadQuery, Op: 2, Reg: "r", Trace: 0xDEADBEEF, Span: 7},
		{Kind: KindReadReply, Op: 43, Reg: "x", Trace: 1, Span: ^uint64(0),
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 8, Writer: 2}}, Val: []byte("v8")},
		{Kind: KindWrite, Op: 10, Reg: "y", Trace: ^uint64(0), Span: 1, Val: []byte("z")},
		{Kind: KindWriteAck, Op: 100001, Trace: 5}, // span 0 with trace set still encodes
		// Edge values: the largest op id, a negative sequence, and a bounded
		// tag with a trace context.
		{Kind: KindReadQuery, Op: ^uint64(0), Reg: "r"},
		{Kind: KindReadReply, Op: 44, Reg: "x",
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: -9, Writer: 2}}, Val: []byte("v9")},
		{Kind: KindWrite, Op: 11, Reg: "y", Val: []byte("z"), Trace: 3, Span: 4,
			Tag: Tag{Valid: true, Window: 2, Label: 5}},
		// A write's tag query, untraced and traced, and its reply: a
		// written tag with no value, which must stay nil, not empty.
		{Kind: KindTagQuery, Op: 12, Reg: "r"},
		{Kind: KindTagQuery, Op: 13, Reg: "r", Trace: 6, Span: 7},
		{Kind: KindReadReply, Op: 12, Reg: "r",
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 10, Writer: 1}}},
	}
	for _, m := range tests {
		t.Run(m.Kind.String(), func(t *testing.T) {
			got, err := decodeMessage(m.encode())
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != m.Kind || got.Op != m.Op || got.Reg != m.Reg || got.Tag != m.Tag {
				t.Fatalf("got %+v, want %+v", got, m)
			}
			if !got.Val.Equal(m.Val) {
				t.Fatalf("val %v, want %v", got.Val, m.Val)
			}
			if got.Trace != m.Trace || got.Span != m.Span {
				t.Fatalf("trace context (%d, %d), want (%d, %d)", got.Trace, got.Span, m.Trace, m.Span)
			}
		})
	}
}

// TestDecodeOldFormatPayload proves the mixed-version contract byte-for-
// byte: a payload laid out exactly as the pre-trace wire format — kind byte
// without the flag bit, no trace trailer, CRC32 over the body — decodes on
// a current node, and an untraced message still encodes to that same old
// format.
func TestDecodeOldFormatPayload(t *testing.T) {
	// Hand-build the old format, independent of encode().
	body := []byte{byte(KindReadReply)}
	body = wire.AppendUint(body, 42)           // op
	body = wire.AppendString(body, "r")        // reg
	body = wire.AppendBool(body, true)         // tag.valid
	body = wire.AppendInt(body, 7)             // seq
	body = wire.AppendInt(body, 3)             // writer
	body = wire.AppendBool(body, false)        // bounded
	body = wire.AppendInt(body, 0)             // label
	body = wire.AppendBytes(body, []byte("v")) // val
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	old := append(body, crc[:]...)

	m, err := decodeMessage(old)
	if err != nil {
		t.Fatalf("old-format payload rejected: %v", err)
	}
	if m.Kind != KindReadReply || m.Op != 42 || m.Reg != "r" ||
		m.Tag.TS.Seq != 7 || string(m.Val) != "v" {
		t.Fatalf("old-format payload decoded wrong: %+v", m)
	}
	if m.Trace != 0 || m.Span != 0 {
		t.Fatalf("old-format payload grew a trace context: (%d, %d)", m.Trace, m.Span)
	}
	// An untraced message emitted today is byte-identical to the old
	// format — what an untraced (old) peer will be handed.
	if got := (message{Kind: KindReadReply, Op: 42, Reg: "r",
		Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 7, Writer: 3}}, Val: []byte("v")}).encode(); !bytes.Equal(got, old) {
		t.Fatalf("untraced encode diverged from the old format:\n got %x\nwant %x", got, old)
	}
}

// TestDecodeRejectsRetiredConfBit: 0x40 on the kind byte once flagged a
// confirmed-tag trailer after the value. The bit is retired, so a payload
// laid out that way — CRC intact — is an unknown kind, not a message with
// trailing bytes: decode fails, and a replica and a client each count it as
// a bad message instead of acting on it.
func TestDecodeRejectsRetiredConfBit(t *testing.T) {
	c := newTestCluster(t, 1, netsim.Config{Seed: 92})
	cl := c.client()
	sender := c.net.Node(2000)
	for i, kind := range []Kind{KindReadQuery, KindReadReply, KindWrite, KindWriteAck, KindTagQuery} {
		body := []byte{byte(kind) | 0x40}
		body = wire.AppendUint(body, 42)           // op
		body = wire.AppendString(body, "r")        // reg
		body = wire.AppendBool(body, true)         // tag.valid
		body = wire.AppendInt(body, 7)             // seq
		body = wire.AppendInt(body, 3)             // writer
		body = wire.AppendInt(body, 0)             // window: unbounded
		body = wire.AppendInt(body, 0)             // label
		body = wire.AppendBytes(body, []byte("v")) // val
		body = wire.AppendBool(body, true)         // retired trailer: valid
		body = wire.AppendInt(body, 6)             // seq
		body = wire.AppendInt(body, 2)             // writer
		body = wire.AppendBool(body, false)        // bounded
		body = wire.AppendInt(body, 0)             // label
		payload := wire.Seal(body, 0, 0)

		_, err := decodeMessage(payload)
		if !errors.Is(err, types.ErrBadMessage) || !strings.Contains(err.Error(), "unknown kind") {
			t.Fatalf("%v with the retired bit: err %v, want an unknown kind", kind, err)
		}

		if err := sender.Send(0, payload); err != nil {
			t.Fatal(err)
		}
		if err := sender.Send(cl.ID(), payload); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			want := int64(i + 1)
			return c.replicas[0].ReplicaMetrics().BadMsgs == want && cl.Metrics().BadMsgs == want
		})
		if m := c.replicas[0].ReplicaMetrics(); m.Queries+m.Updates != 0 {
			t.Fatalf("%v: the replica handled a retired-bit payload: %+v", kind, m)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeMessage(nil); !errors.Is(err, types.ErrBadMessage) {
		t.Fatalf("nil payload: %v", err)
	}
	if _, err := decodeMessage([]byte{0x7F, 1, 2}); !errors.Is(err, types.ErrBadMessage) {
		t.Fatalf("unknown kind: %v", err)
	}
	valid := (message{Kind: KindWrite, Op: 1, Reg: "r", Val: []byte("abc")}).encode()
	if _, err := decodeMessage(valid[:len(valid)-2]); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(op uint64, reg string, seq int64, writer int32, valid bool, window uint16, label int64, val []byte, trace, span uint64) bool {
		m := message{
			Kind:  KindWrite,
			Op:    op,
			Reg:   reg,
			Tag:   Tag{Valid: valid, TS: timestamp.TS{Seq: seq, Writer: types.NodeID(writer)}, Window: int64(window), Label: label},
			Val:   val,
			Trace: trace,
			Span:  span,
		}
		got, err := decodeMessage(m.encode())
		if err != nil {
			return false
		}
		return got.Kind == m.Kind && got.Op == m.Op && got.Reg == m.Reg &&
			got.Tag == m.Tag && bytes.Equal(got.Val, m.Val) && (got.Val == nil) == (val == nil) &&
			got.Trace == m.Trace && got.Span == m.Span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnboundedOrder(t *testing.T) {
	zero := Tag{}
	one := Tag{Valid: true, TS: timestamp.TS{Seq: 1, Writer: 0}}
	oneHigher := Tag{Valid: true, TS: timestamp.TS{Seq: 1, Writer: 5}}
	two := Tag{Valid: true, TS: timestamp.TS{Seq: 2, Writer: 0}}

	cases := []struct {
		a, b Tag
		want int
	}{
		{zero, zero, 0},
		{zero, one, -1},
		{one, zero, 1},
		{one, two, -1},
		{one, oneHigher, -1}, // writer id breaks ties
		{two, two, 0},
	}
	for _, tt := range cases {
		got, err := tt.a.compare(tt.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("compare(%+v, %+v)=%d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestBoundedOrder(t *testing.T) {
	zero := Tag{}
	l0 := Tag{Valid: true, Window: 3, Label: 0} // domain 9
	l2 := Tag{Valid: true, Window: 3, Label: 2}

	if got, err := zero.compare(l0); err != nil || got != -1 {
		t.Fatalf("initial vs written: %d, %v", got, err)
	}
	if got, err := l2.compare(l0); err != nil || got != 1 {
		t.Fatalf("newer label: %d, %v", got, err)
	}
	// Tags of different windows never order, an unbounded one included.
	for _, other := range []Tag{
		{Valid: true, TS: timestamp.TS{Seq: 1}},
		{Valid: true, Window: 4, Label: 0},
	} {
		if _, err := other.compare(l0); !errors.Is(err, types.ErrBadMessage) {
			t.Fatalf("window %d tag ordered against window 3: %v", other.Window, err)
		}
	}
	// Out-of-window labels are detected.
	l4 := Tag{Valid: true, Window: 3, Label: 4}
	if _, err := l4.compare(l0); !errors.Is(err, timestamp.ErrOutOfWindow) {
		t.Fatalf("want ErrOutOfWindow, got %v", err)
	}
}

// TestEntryBytesPinned pins the shared (register, tag, value) encoding to
// the bytes written before tags carried their window: an unbounded tag's
// window is the single byte 0x00 that the bounded flag "false" was, so
// unbounded messages, traced or not, and WAL records are unchanged. A
// bounded tag of that format (flag byte 0x01) reads as window -1, which is
// malformed.
func TestEntryBytesPinned(t *testing.T) {
	tag := Tag{Valid: true, TS: timestamp.TS{Seq: 5, Writer: 2}}
	for _, tc := range []struct {
		name, want string
		got        []byte
	}{
		{"write", "03070178010a040000010176d33d9956",
			message{Kind: KindWrite, Op: 7, Reg: "x", Tag: tag, Val: []byte("v")}.encode()},
		{"traced reply", "82080178010a0400000101760000000000000009000000000000000a848864dd",
			message{Kind: KindReadReply, Op: 8, Reg: "x", Tag: tag, Val: []byte("v"), Trace: 9, Span: 10}.encode()},
		{"query", "01010178000000000000081e89d9",
			message{Kind: KindReadQuery, Op: 1, Reg: "x"}.encode()},
		{"wal record", "0000000a15c7f03c0178010a040000010176",
			encodeRecord(nil, record{reg: "x", tag: tag, val: []byte("v")})},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s: encoded %s, want %s", tc.name, got, tc.want)
		}
	}

	old, err := hex.DecodeString("03070178010000010801017614088551") // bounded, label 4
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMessage(old); !errors.Is(err, types.ErrBadMessage) {
		t.Fatalf("bounded message of the old format: %v, want ErrBadMessage", err)
	}
}
