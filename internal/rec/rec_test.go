package rec

import (
	"encoding/binary"
	"strings"
	"testing"
)

func TestReaderReadsWhatTheHelpersAppend(t *testing.T) {
	b := []byte{7}
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -5)
	b = AppendLenString(b, "node")
	b = AppendLenString(b, "")
	b = binary.AppendUvarint(b, 2) // two items of one byte each
	b = append(b, 1, 2)
	if want := 1 + UvarintLen(300) + 1 + LenStringLen("node") + LenStringLen("") + 3; len(b) != want {
		t.Fatalf("record of %d bytes, the length helpers say %d", len(b), want)
	}
	r := Reader{Buf: b}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.NonZero("n"); got != 300 {
		t.Errorf("NonZero = %d", got)
	}
	if got := r.Varint(); got != -5 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Str("s"); got != "node" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Span("s", 0, 4); len(got) != 0 {
		t.Errorf("Span = %q", got)
	}
	if got := r.Count("items", 1, 1); got != 2 {
		t.Errorf("Count = %d", got)
	}
	r.U8()
	r.U8()
	if err := r.End(); err != nil {
		t.Errorf("End = %v", err)
	}
}

func TestReaderRefuses(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		read func(*Reader)
		want string
	}{
		"empty":                 {nil, func(r *Reader) { r.U8() }, "truncated"},
		"overlong uvarint":      {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "overlong"},
		"uvarint overflow":      {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, func(r *Reader) { r.Uvarint() }, "overflow"},
		"unfinished uvarint":    {[]byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated"},
		"zero":                  {[]byte{0}, func(r *Reader) { r.NonZero("Seq") }, "zero Seq"},
		"empty string":          {[]byte{0}, func(r *Reader) { r.Str("ID") }, "ID of 0 bytes"},
		"span beyond its cap":   {[]byte{5, 1, 2, 3, 4, 5}, func(r *Reader) { r.Span("key", 0, 4) }, "exceeds 4"},
		"span beyond input":     {[]byte{5, 1, 2}, func(r *Reader) { r.Span("key", 0, 9) }, "truncated"},
		"count beyond input":    {[]byte{3, 1, 2, 3, 4, 5}, func(r *Reader) { r.Count("pairs", 0, 2) }, "3 pairs"},
		"count below its floor": {[]byte{0}, func(r *Reader) { r.Count("terms", 1, 1) }, "0 terms"},
		"trailing byte":         {[]byte{1, 2}, func(r *Reader) { r.U8() }, "1 trailing"},
	} {
		r := Reader{Buf: tc.data}
		tc.read(&r)
		if err := r.End(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", name, err, tc.want)
		}
		// The first failure sticks, and later reads return zero values.
		first := r.Err
		if r.U8() != 0 || r.Uvarint() != 0 || r.Span("x", 0, 1) != nil || r.Count("x", 0, 1) != 0 || r.Err != first {
			t.Errorf("%s: a read after the failure returned a value or replaced the error", name)
		}
	}
}
