package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"govents/internal/obvent"
	"govents/internal/rec"
	"govents/internal/vclock"
)

// The envelope's wire record. Every hop reads it (paper §3.1.2, the
// "reified message"), peers and disks feed it to Unmarshal, so it is a
// fixed binary layout with a bounds-checked decoder rather than a
// self-describing stream:
//
//	format       1 byte   envelopeFormat
//	flags        1 byte   flagPriority | flagBirth | flagVC
//	Enc          1 byte   payloadEncoding
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
// so are an empty vector clock and a nil one. Any of the three strings
// may be empty: a record on a link leaves out Type and, when the link
// names it, Publisher; a stored one spells them out (dace's seal).
const (
	// envelopeFormat leads every record. No gob stream starts with it
	// (gob's leading byte count is below 0x80 or above 0xF7), so a record
	// from the gob-framed era is reported as an unknown format instead of
	// being misread.
	envelopeFormat = 0xE1

	// payloadEncoding names the payload's encoding, the class's compiled
	// program (internal/wire), the only one there is. The byte stays so
	// that the record's layout did not move when gob, encoding 0, was
	// retired.
	payloadEncoding = 1

	flagPriority = 1 << 0
	flagBirth    = 1 << 1
	flagVC       = 1 << 2
	knownFlags   = flagPriority | flagBirth | flagVC

	// Field caps, enforced on encode and decode alike.
	maxEnvelopeString  = rec.MaxString
	maxEnvelopeVC      = vclock.MaxEntries
	maxEnvelopePayload = 1 << 30
)

// ErrPayloadEncoding is wrapped when a record names a payload encoding
// other than the compiled one: 0 is the gob encoding of earlier builds,
// every other value is unassigned.
var ErrPayloadEncoding = errors.New("unsupported payload encoding")

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
	b = append(b, envelopeFormat, flags, payloadEncoding)
	b = rec.AppendLenString(b, e.ID)
	b = rec.AppendLenString(b, e.Type)
	b = rec.AppendLenString(b, e.Publisher)
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
			b = rec.AppendLenString(b, k)
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
		rec.LenStringLen(e.ID) + rec.LenStringLen(e.Type) + rec.LenStringLen(e.Publisher) +
		rec.UvarintLen(e.Seq) + rec.UvarintLen(e.GlobalSeq) +
		varintLen(int64(e.Reliability)) + varintLen(int64(e.Ordering)) +
		varintLen(int64(e.Priority)) + varintLen(int64(e.TTL)) + varintLen(e.PubNanos) +
		rec.UvarintLen(uint64(len(e.Payload))) + len(e.Payload)
	if !e.Birth.IsZero() {
		n += varintLen(e.Birth.Unix()) + rec.UvarintLen(uint64(e.Birth.Nanosecond()))
	}
	if len(e.VC) > 0 {
		n += rec.UvarintLen(uint64(len(e.VC)))
		for k, v := range e.VC {
			if len(k) > maxEnvelopeString {
				return 0, fmt.Errorf("vector clock key of %d bytes exceeds %d", len(k), maxEnvelopeString)
			}
			n += rec.LenStringLen(k) + rec.UvarintLen(v)
		}
	}
	return n, nil
}

// varintLen is the encoded length of binary.AppendVarint(nil, x).
func varintLen(x int64) int { return rec.UvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

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
	r := envReader{rec.Reader{Buf: data}}
	if format := r.U8(); r.Err == nil && format != envelopeFormat {
		return nil, fmt.Errorf("codec: unmarshal envelope: unknown envelope format 0x%02x", format)
	}
	flags := r.U8()
	if flags&^knownFlags != 0 {
		return nil, fmt.Errorf("codec: unmarshal envelope: unknown flags 0x%02x", flags&^knownFlags)
	}
	if enc := r.U8(); r.Err == nil && enc != payloadEncoding {
		return nil, fmt.Errorf("codec: unmarshal envelope: %w %d", ErrPayloadEncoding, enc)
	}
	// The reads below run in lexical order, which is the wire order.
	id, typ, pub := r.header()
	e := &Envelope{
		ID:          id,
		Type:        typ,
		Publisher:   pub,
		Seq:         r.Uvarint(),
		GlobalSeq:   r.Uvarint(),
		Reliability: obvent.Reliability(r.intVal()),
		Ordering:    obvent.Ordering(r.intVal()),
		Priority:    r.intVal(),
		HasPriority: flags&flagPriority != 0,
		TTL:         time.Duration(r.Varint()),
		PubNanos:    r.Varint(),
	}
	if flags&flagBirth != 0 {
		sec, nsec := r.Varint(), r.Uvarint()
		if nsec >= 1e9 {
			r.Fail("Birth nanoseconds %d out of range", nsec)
		}
		e.Birth = time.Unix(sec, int64(nsec))
	}
	if flags&flagVC != 0 {
		e.VC = vclock.Read(&r.Reader, false)
	}
	e.Payload = r.payload()
	if r.Err != nil {
		return nil, fmt.Errorf("codec: unmarshal envelope: %w", r.Err)
	}
	return e, nil
}

// envReader reads an envelope's fields off the shared record cursor.
type envReader struct{ rec.Reader }

// intVal reads a varint that must fit the platform's int.
func (r *envReader) intVal() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// header reads ID, Type and Publisher, which are adjacent on the wire,
// in one allocation: the bytes from the first of ID to the last of the
// last field that is not empty are converted once, and the three strings
// are slices of that.
func (r *envReader) header() (id, typ, pub string) {
	var at, n [3]int
	end := 0
	for i, what := range [...]string{"ID", "Type", "Publisher"} {
		b := r.Span(what, 0, maxEnvelopeString)
		at[i], n[i] = r.Off-len(b), len(b)
		if len(b) > 0 {
			end = r.Off
		}
	}
	if r.Err != nil || end == 0 {
		return "", "", ""
	}
	block := string(r.Buf[at[0]:end])
	field := func(i int) string {
		if n[i] == 0 {
			return ""
		}
		return block[at[i]-at[0]:][:n[i]]
	}
	return field(0), field(1), field(2)
}

// payload reads the final field, which must end the record. The result
// aliases the frame.
func (r *envReader) payload() []byte {
	b := r.Span("payload", 0, maxEnvelopePayload)
	if r.End() != nil || len(b) == 0 {
		return nil
	}
	return b
}
