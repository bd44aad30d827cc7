package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestRoundTripScalars(t *testing.T) {
	tests := []struct {
		name string
		enc  func(b []byte) []byte
		dec  func(r *Reader) any
		want any
	}{
		{"uint zero", func(b []byte) []byte { return AppendUint(b, 0) }, func(r *Reader) any { return r.Uint() }, uint64(0)},
		{"uint max", func(b []byte) []byte { return AppendUint(b, math.MaxUint64) }, func(r *Reader) any { return r.Uint() }, uint64(math.MaxUint64)},
		{"int negative", func(b []byte) []byte { return AppendInt(b, -12345) }, func(r *Reader) any { return r.Int() }, int64(-12345)},
		{"int min", func(b []byte) []byte { return AppendInt(b, math.MinInt64) }, func(r *Reader) any { return r.Int() }, int64(math.MinInt64)},
		{"bool true", func(b []byte) []byte { return AppendBool(b, true) }, func(r *Reader) any { return r.Bool() }, true},
		{"bool false", func(b []byte) []byte { return AppendBool(b, false) }, func(r *Reader) any { return r.Bool() }, false},
		{"string empty", func(b []byte) []byte { return AppendString(b, "") }, func(r *Reader) any { return r.String() }, ""},
		{"string utf8", func(b []byte) []byte { return AppendString(b, "héllo, wörld") }, func(r *Reader) any { return r.String() }, "héllo, wörld"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf := tt.enc(nil)
			r := NewReader(buf)
			got := tt.dec(r)
			if err := r.Err(); err != nil {
				t.Fatalf("decode error: %v", err)
			}
			if got != tt.want {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			if r.Len() != 0 {
				t.Fatalf("trailing bytes: %d", r.Len())
			}
		})
	}
}

func TestBytesNilVsEmpty(t *testing.T) {
	bufNil := AppendBytes(nil, nil)
	bufEmpty := AppendBytes(nil, []byte{})

	if got := NewReader(bufNil).Bytes(); got != nil {
		t.Fatalf("nil slice round-trip: got %v, want nil", got)
	}
	got := NewReader(bufEmpty).Bytes()
	if got == nil || len(got) != 0 {
		t.Fatalf("empty slice round-trip: got %v, want empty non-nil", got)
	}
}

func TestBytesReturnsCopy(t *testing.T) {
	src := []byte("original")
	buf := AppendBytes(nil, src)
	r := NewReader(buf)
	out := r.Bytes()
	buf[len(buf)-1] = 'X' // mutate the underlying buffer
	if string(out) != "original" {
		t.Fatalf("decoded bytes aliased the buffer: %q", out)
	}
}

// TestViewAliasesTheBuffer: View returns the bytes in place, keeps nil and
// empty apart like Bytes, and caps the result so an append cannot write
// over the field after it.
func TestViewAliasesTheBuffer(t *testing.T) {
	buf := AppendBool(AppendBytes(nil, []byte("original")), true)
	r := NewReader(buf)
	out := r.View()
	if string(out) != "original" || cap(out) != len(out) {
		t.Fatalf("View = %q (cap %d), want \"original\" capped at its length", out, cap(out))
	}
	_ = append(out, 'Z')
	if !r.Bool() || r.Err() != nil {
		t.Fatalf("an append to the view overwrote the next field: %v", r.Err())
	}
	buf[2] = 'O'
	if string(out) != "Original" {
		t.Fatalf("View copied the buffer: %q", out)
	}
	if got := NewReader(AppendBytes(nil, nil)).View(); got != nil {
		t.Fatalf("nil slice: got %v, want nil", got)
	}
	if got := NewReader(AppendBytes(nil, []byte{})).View(); got == nil || len(got) != 0 {
		t.Fatalf("empty slice: got %v, want empty non-nil", got)
	}
	if got := NewReader(AppendBytes(nil, []byte("abc"))[:3]).View(); got != nil {
		t.Fatalf("truncated body: got %q, want nil", got)
	}
}

func TestMixedSequence(t *testing.T) {
	var buf []byte
	buf = AppendUint(buf, 42)
	buf = AppendString(buf, "register/a")
	buf = AppendInt(buf, -7)
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendBool(buf, true)

	r := NewReader(buf)
	if got := r.Uint(); got != 42 {
		t.Errorf("uint: got %d", got)
	}
	if got := r.String(); got != "register/a" {
		t.Errorf("string: got %q", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("int: got %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes: got %v", got)
	}
	if got := r.Bool(); got != true {
		t.Errorf("bool: got %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("err: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("trailing: %d", r.Len())
	}
}

func TestTruncationIsSticky(t *testing.T) {
	buf := AppendString(nil, "hello")
	r := NewReader(buf[:2]) // cut the body

	_ = r.String()
	if err := r.Err(); !errors.Is(err, types.ErrBadMessage) {
		t.Fatalf("want ErrBadMessage, got %v", err)
	}
	// All later reads must stay poisoned and return zero values.
	if got := r.Uint(); got != 0 {
		t.Fatalf("poisoned Uint: got %d", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("poisoned Bytes: got %v", got)
	}
	if err := r.Err(); !errors.Is(err, types.ErrBadMessage) {
		t.Fatalf("error not sticky: %v", err)
	}
}

func TestEmptyBufferFails(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uint()
	if r.Err() == nil {
		t.Fatal("want error decoding from empty buffer")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, b []byte, flag bool) bool {
		var buf []byte
		buf = AppendUint(buf, u)
		buf = AppendInt(buf, i)
		buf = AppendString(buf, s)
		buf = AppendBytes(buf, b)
		buf = AppendBool(buf, flag)

		r := NewReader(buf)
		gu, gi, gs, gb, gf := r.Uint(), r.Int(), r.String(), r.Bytes(), r.Bool()
		if r.Err() != nil || r.Len() != 0 {
			return false
		}
		if gu != u || gi != i || gs != s || gf != flag {
			return false
		}
		if (gb == nil) != (b == nil) {
			return false
		}
		return bytes.Equal(gb, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
