package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"

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
			Tag: Tag{Valid: true, Bounded: true, Label: 11}, Val: []byte{}},
		{Kind: KindWriteAck, Op: 100000, Reg: ""},
		// Traced variants: the trace context must survive the round trip on
		// every kind, including edge ids.
		{Kind: KindReadQuery, Op: 2, Reg: "r", Trace: 0xDEADBEEF, Span: 7},
		{Kind: KindReadReply, Op: 43, Reg: "x", Trace: 1, Span: ^uint64(0),
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 8, Writer: 2}}, Val: []byte("v8")},
		{Kind: KindWrite, Op: 10, Reg: "y", Trace: ^uint64(0), Span: 1, Val: []byte("z")},
		{Kind: KindWriteAck, Op: 100001, Trace: 5}, // span 0 with trace set still encodes
		// Confirmed-watermark variants: the conf tag must survive the round
		// trip alone, with a trace context, and on every carrying kind.
		{Kind: KindReadQuery, Op: 3, Reg: "r",
			Conf: Tag{Valid: true, TS: timestamp.TS{Seq: 6, Writer: 1}}},
		{Kind: KindReadReply, Op: 44, Reg: "x",
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 9, Writer: 2}}, Val: []byte("v9"),
			Conf: Tag{Valid: true, TS: timestamp.TS{Seq: 8, Writer: 2}}},
		{Kind: KindWrite, Op: 11, Reg: "y", Val: []byte("z"), Trace: 3, Span: 4,
			Conf: Tag{Valid: true, Bounded: true, Label: 5}},
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
			if got.Conf != m.Conf {
				t.Fatalf("conf %+v, want %+v", got.Conf, m.Conf)
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
	// An untraced, watermark-free message emitted today is byte-identical
	// to the old format — what an untraced (old) peer will be handed.
	if got := (message{Kind: KindReadReply, Op: 42, Reg: "r",
		Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 7, Writer: 3}}, Val: []byte("v")}).encode(); !bytes.Equal(got, old) {
		t.Fatalf("untraced encode diverged from the old format:\n got %x\nwant %x", got, old)
	}
}

// TestDecodeConfFormatPayload pins the watermark extension's wire layout the
// same way: a hand-built payload with confFlag on the kind byte and the five
// conf-tag fields after the value decodes to the right Conf, and encode()
// reproduces it byte-for-byte.
func TestDecodeConfFormatPayload(t *testing.T) {
	body := []byte{byte(KindReadReply) | confFlag}
	body = wire.AppendUint(body, 42)           // op
	body = wire.AppendString(body, "r")        // reg
	body = wire.AppendBool(body, true)         // tag.valid
	body = wire.AppendInt(body, 7)             // seq
	body = wire.AppendInt(body, 3)             // writer
	body = wire.AppendBool(body, false)        // bounded
	body = wire.AppendInt(body, 0)             // label
	body = wire.AppendBytes(body, []byte("v")) // val
	body = wire.AppendBool(body, true)         // conf.valid
	body = wire.AppendInt(body, 6)             // conf.seq
	body = wire.AppendInt(body, 2)             // conf.writer
	body = wire.AppendBool(body, false)        // conf.bounded
	body = wire.AppendInt(body, 0)             // conf.label
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	golden := append(body, crc[:]...)

	m, err := decodeMessage(golden)
	if err != nil {
		t.Fatalf("conf-format payload rejected: %v", err)
	}
	want := Tag{Valid: true, TS: timestamp.TS{Seq: 6, Writer: 2}}
	if m.Kind != KindReadReply || m.Conf != want {
		t.Fatalf("conf-format payload decoded wrong: kind %v conf %+v", m.Kind, m.Conf)
	}
	if got := (message{Kind: KindReadReply, Op: 42, Reg: "r",
		Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 7, Writer: 3}}, Val: []byte("v"),
		Conf: want}).encode(); !bytes.Equal(got, golden) {
		t.Fatalf("watermark encode diverged from the pinned format:\n got %x\nwant %x", got, golden)
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
	f := func(op uint64, reg string, seq int64, writer int32, valid, bounded bool, label int64, val []byte, trace, span uint64, confSeq int64, confWriter int32, conf bool) bool {
		m := message{
			Kind:  KindWrite,
			Op:    op,
			Reg:   reg,
			Tag:   Tag{Valid: valid, TS: timestamp.TS{Seq: seq, Writer: types.NodeID(writer)}, Bounded: bounded, Label: label},
			Val:   val,
			Trace: trace,
			Span:  span,
		}
		if conf {
			m.Conf = Tag{Valid: true, TS: timestamp.TS{Seq: confSeq, Writer: types.NodeID(confWriter)}}
		}
		got, err := decodeMessage(m.encode())
		if err != nil {
			return false
		}
		return got.Kind == m.Kind && got.Op == m.Op && got.Reg == m.Reg &&
			got.Tag == m.Tag && bytes.Equal(got.Val, m.Val) && (got.Val == nil) == (val == nil) &&
			got.Trace == m.Trace && got.Span == m.Span && got.Conf == m.Conf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnboundedOrder(t *testing.T) {
	ord := unboundedOrder{}
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
		got, err := ord.compare(tt.a, tt.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("compare(%+v, %+v)=%d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestBoundedOrder(t *testing.T) {
	ord, err := newBoundedOrder(3) // domain 9
	if err != nil {
		t.Fatal(err)
	}
	zero := Tag{}
	l0 := Tag{Valid: true, Bounded: true, Label: 0}
	l2 := Tag{Valid: true, Bounded: true, Label: 2}

	if got, err := ord.compare(zero, l0); err != nil || got != -1 {
		t.Fatalf("initial vs written: %d, %v", got, err)
	}
	if got, err := ord.compare(l2, l0); err != nil || got != 1 {
		t.Fatalf("newer label: %d, %v", got, err)
	}
	// Mixing modes is a protocol error.
	unb := Tag{Valid: true, TS: timestamp.TS{Seq: 1}}
	if _, err := ord.compare(unb, l0); err == nil {
		t.Fatal("unbounded tag accepted in bounded mode")
	}
	// Out-of-window labels are detected.
	l4 := Tag{Valid: true, Bounded: true, Label: 4}
	if _, err := ord.compare(l4, l0); !errors.Is(err, timestamp.ErrOutOfWindow) {
		t.Fatalf("want ErrOutOfWindow, got %v", err)
	}
}
