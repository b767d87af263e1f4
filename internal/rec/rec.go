// Package rec holds what the hand-written wire records share (the
// multicast record, the subscription advertisement, the marshaled
// filter): append helpers and a bounds-checked cursor. The records are
// one-encoding-only: every uvarint travels in its shortest form and the
// cursor refuses any other, so what a decoder accepts its encoder
// reproduces byte for byte. The cursor faces peers: a length is checked
// against the bytes that remain before anything is allocated for it.
package rec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// MaxString caps a length-prefixed string field, on encode and decode
// alike.
const MaxString = 0xFFFF

// AppendLenString appends s behind its uvarint length.
func AppendLenString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// LenStringLen is the encoded length of AppendLenString(nil, s).
func LenStringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// UvarintLen is the encoded length of binary.AppendUvarint(nil, x).
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Reader is a cursor over wire bytes with a sticky error: after the
// first failure every read returns a zero value, so a decoder checks Err
// once at the end.
type Reader struct {
	Buf []byte
	Off int
	Err error
}

// Fail records the first failure.
func (r *Reader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf(format, args...)
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.Err != nil {
		return 0
	}
	if r.Off >= len(r.Buf) {
		r.Fail("truncated at offset %d", r.Off)
		return 0
	}
	v := r.Buf[r.Off]
	r.Off++
	return v
}

// Uvarint reads a uvarint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf[r.Off:])
	switch {
	case n == 0:
		r.Fail("truncated at offset %d", r.Off)
		return 0
	case n < 0:
		r.Fail("varint overflow at offset %d", r.Off)
		return 0
	case n > 1 && r.Buf[r.Off+n-1] == 0:
		r.Fail("overlong varint at offset %d", r.Off)
		return 0
	}
	r.Off += n
	return v
}

// Varint reads what binary.AppendVarint wrote, in its shortest form.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// NonZero reads the uvarint of a field whose presence says it is not
// zero.
func (r *Reader) NonZero(what string) uint64 {
	v := r.Uvarint()
	if v == 0 {
		r.Fail("zero %s", what)
	}
	return v
}

// Span reads a uvarint length of lo to hi and the bytes it covers,
// which alias Buf.
func (r *Reader) Span(what string, lo, hi int) []byte {
	n := r.Uvarint()
	if r.Err != nil {
		return nil
	}
	switch {
	case n < uint64(lo):
		r.Fail("%s of %d bytes at offset %d", what, n, r.Off)
		return nil
	case n > uint64(hi):
		r.Fail("%s of %d bytes exceeds %d", what, n, hi)
		return nil
	case n > uint64(len(r.Buf)-r.Off):
		r.Fail("%s of %d bytes truncated at offset %d", what, n, r.Off)
		return nil
	}
	b := r.Buf[r.Off : r.Off+int(n)]
	r.Off += int(n)
	return b
}

// Str reads a length-prefixed, non-empty string.
func (r *Reader) Str(what string) string { return string(r.Span(what, 1, MaxString)) }

// Count reads the uvarint number, at least lo, of items that take at
// least each bytes apiece, so that what a decoder allocates for them is
// bounded by the input it was handed.
func (r *Reader) Count(what string, lo, each int) int {
	n := r.Uvarint()
	if r.Err != nil {
		return 0
	}
	if n < uint64(lo) || n > uint64(len(r.Buf)-r.Off)/uint64(each) {
		r.Fail("%d %s at offset %d", n, what, r.Off)
		return 0
	}
	return int(n)
}

// End fails on bytes left over: a record that ends with its last field
// has no trailing bytes.
func (r *Reader) End() error {
	if r.Err == nil && r.Off < len(r.Buf) {
		r.Fail("%d trailing bytes", len(r.Buf)-r.Off)
	}
	return r.Err
}
