package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"govents/internal/obvent"
	"govents/internal/vclock"
)

// The envelope's wire record. Every hop reads it (paper §3.1.2, the
// "reified message"), peers and disks feed it to Unmarshal, so it is a
// fixed binary layout with a bounds-checked decoder rather than a
// self-describing stream:
//
//	format       1 byte   envelopeFormat
//	flags        1 byte   flagPriority | flagBirth | flagVC
//	Enc          1 byte
//	ID           uvarint length (≤ maxEnvelopeString) + bytes
//	Type         likewise
//	Publisher    likewise
//	Seq          uvarint
//	GlobalSeq    uvarint
//	Reliability  varint (zigzag)
//	Ordering     varint
//	Priority     varint (HasPriority travels as flagPriority)
//	TTL          varint, nanoseconds
//	PubNanos     varint
//	Birth        flagBirth only: varint Unix seconds, uvarint nanoseconds (< 1e9)
//	VC           flagVC only: uvarint count (1..maxEnvelopeVC), then per entry
//	             a length-prefixed key and a uvarint value
//	Payload      uvarint length + bytes, ending the record
//
// An empty payload and a nil one are the same record and decode as nil;
// so are an empty vector clock and a nil one.
const (
	// envelopeFormat leads every record. No gob stream starts with it
	// (gob's leading byte count is below 0x80 or above 0xF7), so a record
	// from the gob-framed era is reported as an unknown format instead of
	// being misread.
	envelopeFormat = 0xE1

	flagPriority = 1 << 0
	flagBirth    = 1 << 1
	flagVC       = 1 << 2
	knownFlags   = flagPriority | flagBirth | flagVC

	// Field caps, enforced on encode and decode alike.
	maxEnvelopeString  = 0xFFFF
	maxEnvelopeVC      = 0xFFFF
	maxEnvelopePayload = 1 << 30
)

// Marshal serializes an envelope for transmission in one allocation.
func Marshal(e *Envelope) ([]byte, error) {
	return AppendEnvelope(nil, e)
}

// AppendEnvelope appends e's wire record to dst, growing it at most
// once, and returns the extended slice. On error dst is returned
// unchanged.
func AppendEnvelope(dst []byte, e *Envelope) ([]byte, error) {
	size, err := envelopeSize(e)
	if err != nil {
		return dst, fmt.Errorf("codec: marshal envelope: %w", err)
	}
	var flags byte
	if e.HasPriority {
		flags |= flagPriority
	}
	if !e.Birth.IsZero() {
		flags |= flagBirth
	}
	if len(e.VC) > 0 {
		flags |= flagVC
	}
	b := dst
	if cap(b)-len(b) < size {
		// Not slices.Grow: the race detector's build allocates twice there.
		b = make([]byte, len(dst), len(dst)+size)
		copy(b, dst)
	}
	b = append(b, envelopeFormat, flags, e.Enc)
	b = appendLenString(b, e.ID)
	b = appendLenString(b, e.Type)
	b = appendLenString(b, e.Publisher)
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendUvarint(b, e.GlobalSeq)
	b = binary.AppendVarint(b, int64(e.Reliability))
	b = binary.AppendVarint(b, int64(e.Ordering))
	b = binary.AppendVarint(b, int64(e.Priority))
	b = binary.AppendVarint(b, int64(e.TTL))
	b = binary.AppendVarint(b, e.PubNanos)
	if flags&flagBirth != 0 {
		// Seconds and nanoseconds, not a bare UnixNano: the latter
		// overflows outside 1678–2262.
		b = binary.AppendVarint(b, e.Birth.Unix())
		b = binary.AppendUvarint(b, uint64(e.Birth.Nanosecond()))
	}
	if flags&flagVC != 0 {
		b = binary.AppendUvarint(b, uint64(len(e.VC)))
		for k, v := range e.VC {
			b = appendLenString(b, k)
			b = binary.AppendUvarint(b, v)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(e.Payload)))
	return append(b, e.Payload...), nil
}

// envelopeSize returns the exact length of e's wire record, or an error
// when a field exceeds its cap.
func envelopeSize(e *Envelope) (int, error) {
	switch {
	case len(e.ID) > maxEnvelopeString:
		return 0, fmt.Errorf("ID of %d bytes exceeds %d", len(e.ID), maxEnvelopeString)
	case len(e.Type) > maxEnvelopeString:
		return 0, fmt.Errorf("Type of %d bytes exceeds %d", len(e.Type), maxEnvelopeString)
	case len(e.Publisher) > maxEnvelopeString:
		return 0, fmt.Errorf("Publisher of %d bytes exceeds %d", len(e.Publisher), maxEnvelopeString)
	case len(e.VC) > maxEnvelopeVC:
		return 0, fmt.Errorf("vector clock of %d entries exceeds %d", len(e.VC), maxEnvelopeVC)
	case len(e.Payload) > maxEnvelopePayload:
		return 0, fmt.Errorf("payload of %d bytes exceeds %d", len(e.Payload), maxEnvelopePayload)
	}
	n := 3 +
		lenStringLen(e.ID) + lenStringLen(e.Type) + lenStringLen(e.Publisher) +
		uvarintLen(e.Seq) + uvarintLen(e.GlobalSeq) +
		varintLen(int64(e.Reliability)) + varintLen(int64(e.Ordering)) +
		varintLen(int64(e.Priority)) + varintLen(int64(e.TTL)) + varintLen(e.PubNanos) +
		uvarintLen(uint64(len(e.Payload))) + len(e.Payload)
	if !e.Birth.IsZero() {
		n += varintLen(e.Birth.Unix()) + uvarintLen(uint64(e.Birth.Nanosecond()))
	}
	if len(e.VC) > 0 {
		n += uvarintLen(uint64(len(e.VC)))
		for k, v := range e.VC {
			if len(k) > maxEnvelopeString {
				return 0, fmt.Errorf("vector clock key of %d bytes exceeds %d", len(k), maxEnvelopeString)
			}
			n += lenStringLen(k) + uvarintLen(v)
		}
	}
	return n, nil
}

func appendLenString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func lenStringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// uvarintLen is the encoded length of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the encoded length of binary.AppendVarint(nil, x).
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// Unmarshal deserializes an envelope from the wire. It is peer- and
// disk-facing: every length is checked against the bytes that remain
// and against the field's cap before anything is allocated; unknown
// flags, an unknown format byte and trailing bytes are errors. The
// returned envelope shares no memory with data, so this is the form for
// a caller that decodes out of a buffer it goes on using.
func Unmarshal(data []byte) (*Envelope, error) {
	e, err := UnmarshalAlias(data)
	if err != nil {
		return nil, err
	}
	e.Payload = slices.Clone(e.Payload)
	return e, nil
}

// UnmarshalAlias is Unmarshal without the payload's copy: the returned
// envelope's Payload is a slice of data (every other field is copied
// out). It is for the caller that owns data and never writes to it
// again (the receive path: the transport allocates a buffer per frame)
// or that drops the envelope before data changes (routing a frame).
// Anything else calls Unmarshal.
func UnmarshalAlias(data []byte) (*Envelope, error) {
	r := envReader{buf: data}
	if format := r.u8(); r.err == nil && format != envelopeFormat {
		return nil, fmt.Errorf("codec: unmarshal envelope: unknown envelope format 0x%02x", format)
	}
	flags := r.u8()
	if flags&^knownFlags != 0 {
		return nil, fmt.Errorf("codec: unmarshal envelope: unknown flags 0x%02x", flags&^knownFlags)
	}
	// The reads below run in lexical order, which is the wire order.
	e := &Envelope{
		Enc:         r.u8(),
		ID:          r.str("ID"),
		Type:        r.str("Type"),
		Publisher:   r.str("Publisher"),
		Seq:         r.uvarint(),
		GlobalSeq:   r.uvarint(),
		Reliability: obvent.Reliability(r.intVal()),
		Ordering:    obvent.Ordering(r.intVal()),
		Priority:    r.intVal(),
		HasPriority: flags&flagPriority != 0,
		TTL:         time.Duration(r.varint()),
		PubNanos:    r.varint(),
	}
	if flags&flagBirth != 0 {
		sec, nsec := r.varint(), r.uvarint()
		if nsec >= 1e9 {
			r.fail("Birth nanoseconds %d out of range", nsec)
		}
		e.Birth = time.Unix(sec, int64(nsec))
	}
	if flags&flagVC != 0 {
		e.VC = r.vc()
	}
	e.Payload = r.payload()
	if r.err != nil {
		return nil, fmt.Errorf("codec: unmarshal envelope: %w", r.err)
	}
	return e, nil
}

// envReader is a cursor over an envelope record with a sticky error:
// after the first failure every read returns a zero value, so Unmarshal
// checks once at the end.
type envReader struct {
	buf []byte
	off int
	err error
}

func (r *envReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *envReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *envReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n == 0 {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	if n < 0 {
		r.fail("varint overflow at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *envReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// intVal reads a varint that must fit the platform's int.
func (r *envReader) intVal() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// span reads a length prefix, checks it against limit and the bytes
// that remain, and returns the bytes it covers (aliasing buf).
func (r *envReader) span(what string, limit int) []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(limit) {
		r.fail("%s of %d bytes exceeds %d", what, n, limit)
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("%s of %d bytes truncated at offset %d", what, n, r.off)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *envReader) str(what string) string {
	return string(r.span(what, maxEnvelopeString))
}

func (r *envReader) vc() vclock.VC {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Every entry takes at least two bytes (an empty key's length and a
	// value), which bounds the map's size by the input's before it is
	// allocated.
	if n == 0 || n > maxEnvelopeVC || n > uint64(len(r.buf)-r.off)/2 {
		r.fail("vector clock of %d entries at offset %d", n, r.off)
		return nil
	}
	vc := make(vclock.VC, n)
	for i := uint64(0); i < n; i++ {
		k := r.str("vector clock key")
		v := r.uvarint()
		if r.err != nil {
			return nil
		}
		if _, dup := vc[k]; dup {
			r.fail("duplicate vector clock key %q", k)
			return nil
		}
		vc[k] = v
	}
	return vc
}

// payload reads the final field, which must end the record. The result
// aliases the frame.
func (r *envReader) payload() []byte {
	b := r.span("payload", maxEnvelopePayload)
	if r.err != nil {
		return nil
	}
	if r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
		return nil
	}
	if len(b) == 0 {
		return nil
	}
	return b
}
