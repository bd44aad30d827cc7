package core

import (
	"bytes"
	"testing"

	"repro/internal/timestamp"
	"repro/internal/types"
)

func FuzzDecodeMessage(f *testing.F) {
	// Seed with valid encodings of every kind — traced and untraced — plus
	// junk. The untraced seeds are exactly the pre-trace wire format, so
	// the fuzz corpus covers the mixed-version path (a traced client
	// decoding an untraced replica's payload and vice versa).
	seeds := []message{
		{Kind: KindReadQuery, Op: 1, Reg: "r"},
		{Kind: KindReadReply, Op: 2, Reg: "x",
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 3, Writer: 1}}, Val: []byte("v")},
		{Kind: KindWrite, Op: 3, Reg: "y",
			Tag: Tag{Valid: true, Window: 3, Label: 7}, Val: []byte{}},
		{Kind: KindWriteAck, Op: 4},
		{Kind: KindReadQuery, Op: 5, Reg: "r", Trace: 0xA1B2C3D4, Span: 0x55},
		{Kind: KindReadReply, Op: 6, Reg: "x", Trace: 1, Span: ^uint64(0),
			Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 9, Writer: 2}}, Val: []byte("w")},
		{Kind: KindWriteAck, Op: 7, Trace: ^uint64(0), Span: 1},
	}
	for _, m := range seeds {
		f.Add(m.encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01, 0x02})
	// A write's tag query, traced, and its valueless reply.
	f.Add(message{Kind: KindTagQuery, Op: 8, Reg: "r", Trace: 2, Span: 3}.encode())
	f.Add(message{Kind: KindReadReply, Op: 8, Reg: "r",
		Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 4, Writer: 1}}}.encode())

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeMessage(payload)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to something that decodes to the
		// same message (canonicalization may differ from the fuzz input
		// itself, e.g. non-minimal varints).
		re, err := decodeMessage(m.encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Kind != m.Kind || re.Op != m.Op || re.Reg != m.Reg || re.Tag != m.Tag ||
			!bytes.Equal(re.Val, m.Val) || re.Trace != m.Trace || re.Span != m.Span {
			t.Fatalf("decode not stable: %+v vs %+v", re, m)
		}
	})
}

func FuzzDecodeRecord(f *testing.F) {
	f.Add(appendEntry(nil, "x", Tag{Valid: true}, []byte("v")))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec, _, err := decodeRecord(body)
		if err != nil {
			return
		}
		re, _, err := decodeRecord(appendEntry(nil, rec.reg, rec.tag, rec.val))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.reg != rec.reg || re.tag != rec.tag || !bytes.Equal(re.val, rec.val) {
			t.Fatalf("record decode not stable: %+v vs %+v", re, rec)
		}
	})
}

func FuzzOrderComparisons(f *testing.F) {
	f.Add(int64(0), int64(1), int64(0), int64(2), true, true)
	f.Add(int64(5), int64(1), int64(5), int64(2), true, true)

	f.Fuzz(func(t *testing.T, seqA, wA, seqB, wB int64, validA, validB bool) {
		a := Tag{Valid: validA, TS: timestamp.TS{Seq: seqA, Writer: types.NodeID(wA)}}
		b := Tag{Valid: validB, TS: timestamp.TS{Seq: seqB, Writer: types.NodeID(wB)}}
		ab, err := a.compare(b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := b.compare(a)
		if err != nil {
			t.Fatal(err)
		}
		if ab != -ba {
			t.Fatalf("compare not antisymmetric: %d vs %d", ab, ba)
		}
		aa, _ := a.compare(a)
		if aa != 0 {
			t.Fatalf("compare not reflexive: %d", aa)
		}
	})
}
