// Package wire implements the binary codec used for every protocol payload,
// both on the simulated network and over TCP. Encoding is hand-rolled on top
// of encoding/binary varints so the module stays stdlib-only and the on-wire
// format is explicit and stable.
//
// The conventions:
//
//   - unsigned integers are uvarints,
//   - signed integers are zig-zag varints,
//   - byte strings are a uvarint length followed by the raw bytes, with
//     length 0 meaning empty and the sentinel maxUvarint32+1 unused (nil
//     byte strings are encoded with an explicit presence bit).
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// AppendUint appends v as a uvarint.
func AppendUint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a presence bit, a uvarint length, and the raw bytes.
// nil and empty slices round-trip distinctly; the protocol uses nil for
// "register never written".
func AppendBytes(b, v []byte) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendString appends a uvarint length followed by the string bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader decodes values appended by the Append functions. It is sticky: the
// first decoding error poisons the reader and all subsequent calls return
// zero values. Check Err once after the final field.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The reader does not copy buf; callers
// must not mutate it during decoding.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of undecoded bytes remaining.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", types.ErrBadMessage, what, r.off)
	}
}

// Uint decodes a uvarint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int decodes a zig-zag varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Bool decodes a single 0/1 byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	return b != 0
}

// Byte decodes a single raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bytes decodes a byte string appended with AppendBytes. The returned slice
// is a copy, so it remains valid after the underlying buffer is reused.
func (r *Reader) Bytes() []byte {
	v := r.View()
	if v == nil {
		return nil
	}
	return append(make([]byte, 0, len(v)), v...)
}

// View decodes a byte string like Bytes, without the copy: the result
// aliases the reader's buffer, so it is valid only while that buffer is
// left unchanged. Its capacity ends where the string does, so appending to
// it never writes into the bytes that follow.
func (r *Reader) View() []byte {
	if r.err != nil {
		return nil
	}
	present := r.Bool()
	if r.err != nil || !present {
		return nil
	}
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Len()) < n {
		r.fail("bytes body")
		return nil
	}
	end := r.off + int(n)
	out := r.buf[r.off:end:end]
	r.off = end
	return out
}

// String decodes a string appended with AppendString.
func (r *Reader) String() string {
	if r.err != nil {
		return ""
	}
	n := r.Uint()
	if r.err != nil {
		return ""
	}
	if uint64(r.Len()) < n {
		r.fail("string body")
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}
