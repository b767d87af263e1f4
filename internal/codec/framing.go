package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"govents/internal/obvent"
	"govents/internal/rec"
	"govents/internal/vclock"
)

// The envelope's wire record. Every hop reads it (paper §3.1.2, the
// "reified message"), peers and disks feed it to Unmarshal, so it is a
// fixed binary layout with a bounds-checked decoder rather than a
// self-describing stream. It has two forms, told apart by flagLink. The
// stored form (Seal, Marshal, AppendEnvelope) spells every field out:
//
//	format       1 byte   envelopeFormat
//	flags        1 byte   flagPriority | flagBirth | flagVC
//	Enc          1 byte   payloadEncoding
//	ID           uvarint length (≤ maxEnvelopeString) + bytes: the Name's
//	             text, or an empty ID for an envelope nobody named
//	Type         likewise
//	Publisher    likewise
//	(retired)    two uvarints, written 0, read and dropped: a per-publisher
//	             and a sequencer's sequence number that nothing set
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
// The link form (SealLink) sets flagLink and sends only what is not
// zero: Type, Publisher and TTL travel under flags of their own
// (flagType, flagPublisher, flagTTL), Priority only under flagPriority,
// the retired numbers not at all, and the payload is the rest of the
// record, with no length in front. The Name travels as its numbers, not
// its text: the count always, and the incarnation under flagInc, which a
// record on a numbered link leaves out when the link's binding names it
// (the receiver puts it back, as it does the class and the publisher).
// The decoder spells nothing out: a link-form envelope's ID text is
// empty.
//
//	format, flags, Enc
//	N            uvarint: the Name's count
//	Inc          flagInc only: uvarint, not zero: the Name's incarnation
//	Type         flagType only: uvarint length (1..maxEnvelopeString) + bytes
//	Publisher    flagPublisher only: likewise
//	Reliability, Ordering
//	Priority     flagPriority only
//	TTL          flagTTL only, not zero
//	PubNanos, Birth, VC as stored
//	Payload      the rest of the record
//
// An empty payload and a nil one are the same record and decode as nil;
// so are an empty vector clock and a nil one. Any of the three strings
// may be empty: a record on a link leaves out Type and, when the link
// names it, Publisher; a stored one spells them out (dace's seal). A
// stored record's ID that is a Name's text decodes as that Name, with no
// ID text, and one that is not (none this build or an earlier one wrote;
// the zero Name's text is not one either) as that ID text under a zero
// Name: each is written back as it was.
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

	flagPriority  = 1 << 0
	flagBirth     = 1 << 1
	flagVC        = 1 << 2
	flagInc       = 1 << 3 // link form only, as are the three below
	flagType      = 1 << 4
	flagPublisher = 1 << 5
	flagTTL       = 1 << 6
	flagLink      = 1 << 7
	linkFlags     = flagInc | flagType | flagPublisher | flagTTL

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
	f := recordFlags(e, false)
	head, err := headerSize(e, f)
	if err != nil {
		return dst, fmt.Errorf("codec: marshal envelope: %w", err)
	}
	return appendRecord(dst, head, e, f), nil
}

// appendRecord is AppendEnvelope in the form flags f name, once
// headerSize has vouched for e.
func appendRecord(dst []byte, head int, e *Envelope, f byte) []byte {
	b := dst
	if size := head + len(e.Payload); cap(b)-len(b) < size {
		// Not slices.Grow: the race detector's build allocates twice there.
		b = make([]byte, len(dst), len(dst)+size)
		copy(b, dst)
	}
	return append(appendHeader(b, e, f), e.Payload...)
}

// Seal returns e's wire record, byte for byte Marshal's, without copying
// the payload when Encode left room for the header in front of it: the
// first Seal of that buffer writes the header there, and the record is
// the header and the payload where they lie. The right to the room is
// the buffer's, not the Envelope value's, so of the copies of an
// envelope sharing one payload (a copy with another Name, a link form
// with fields left out) only the first sealed writes it; any later Seal,
// and a header that does not fit the room, copies as Marshal does. The
// record is read-only like the payload it shares; a record a link or an
// outbox keeps is never written again.
func Seal(e *Envelope) ([]byte, error) { return seal(e, recordFlags(e, false)) }

// SealLink is Seal for a record that travels a link and is not stored:
// the link form, which leaves out every field that is zero and the
// payload's length, and carries the Name's numbers, not its text: the
// incarnation only when it is not zero, so a caller whose link names it
// zeroes it in the copy it seals. The ID text does not travel. The
// header is never longer than the stored form's of a named envelope, so
// it fits the room Encode left.
func SealLink(e *Envelope) ([]byte, error) { return seal(e, recordFlags(e, true)) }

// seal is Seal in the form flags f name.
func seal(e *Envelope, f byte) ([]byte, error) {
	head, err := headerSize(e, f)
	if err != nil {
		return nil, fmt.Errorf("codec: marshal envelope: %w", err)
	}
	if r := e.room; r != nil && head <= r.off && r.holds(e.Payload) && r.claimed.CompareAndSwap(false, true) {
		start := r.off - head
		appendHeader(r.buf[start:start:r.off], e, f)
		return r.buf[start:len(r.buf):len(r.buf)], nil
	}
	return appendRecord(nil, head, e, f), nil
}

// recordFlags returns the flags byte of e's record: the stored form, or
// the link form.
func recordFlags(e *Envelope, link bool) byte {
	var f byte
	if e.HasPriority {
		f |= flagPriority
	}
	if !e.Birth.IsZero() {
		f |= flagBirth
	}
	if len(e.VC) > 0 {
		f |= flagVC
	}
	if !link {
		return f
	}
	f |= flagLink
	if e.Name.Inc != 0 {
		f |= flagInc
	}
	if e.Type != "" {
		f |= flagType
	}
	if e.Publisher != "" {
		f |= flagPublisher
	}
	if e.TTL != 0 {
		f |= flagTTL
	}
	return f
}

// headroom is the buffer Encode wrote a payload into: room for the
// record's header, then the payload, which runs to the buffer's end.
// claimed is set by the one Seal that writes the header into it; enc is
// the pooled object the room lives in (Release).
type headroom struct {
	buf     []byte
	off     int // where the payload starts
	claimed atomic.Bool
	enc     *encoded
}

// holds reports whether payload is still the one Encode wrote behind the
// room, not a slice a caller put in its place.
func (r *headroom) holds(payload []byte) bool {
	return len(payload) > 0 && len(payload) == len(r.buf)-r.off && &payload[0] == &r.buf[r.off]
}

// appendHeader appends e's record in the form flags f name, up to the
// payload (and its length prefix, stored): the one header writer, behind
// Marshal's copy and Seal's room alike. The caller has sized dst with
// headerSize, which also vouches for the fields.
func appendHeader(b []byte, e *Envelope, f byte) []byte {
	link := f&flagLink != 0
	b = append(b, envelopeFormat, f, payloadEncoding)
	switch {
	case link:
		b = binary.AppendUvarint(b, e.Name.N)
		if f&flagInc != 0 {
			b = binary.AppendUvarint(b, e.Name.Inc)
		}
	case e.ID != "" || e.Name.IsZero():
		b = rec.AppendLenString(b, e.ID)
	default:
		b = e.Name.AppendText(append(b, nameText))
	}
	if !link || f&flagType != 0 {
		b = rec.AppendLenString(b, e.Type)
	}
	if !link || f&flagPublisher != 0 {
		b = rec.AppendLenString(b, e.Publisher)
	}
	if !link {
		b = append(b, 0, 0) // the retired sequence numbers
	}
	b = binary.AppendVarint(b, int64(e.Reliability))
	b = binary.AppendVarint(b, int64(e.Ordering))
	if !link || f&flagPriority != 0 {
		b = binary.AppendVarint(b, int64(e.Priority))
	}
	if !link || f&flagTTL != 0 {
		b = binary.AppendVarint(b, int64(e.TTL))
	}
	b = binary.AppendVarint(b, e.PubNanos)
	if f&flagBirth != 0 {
		// Seconds and nanoseconds, not a bare UnixNano: the latter
		// overflows outside 1678–2262.
		b = binary.AppendVarint(b, e.Birth.Unix())
		b = binary.AppendUvarint(b, uint64(e.Birth.Nanosecond()))
	}
	if f&flagVC != 0 {
		b = binary.AppendUvarint(b, uint64(len(e.VC)))
		for k, v := range e.VC {
			b = rec.AppendLenString(b, k)
			b = binary.AppendUvarint(b, v)
		}
	}
	if link {
		return b
	}
	return binary.AppendUvarint(b, uint64(len(e.Payload)))
}

// headerSize returns the exact length of e's record in the form flags f
// name, less the payload's bytes, or an error when a field exceeds its
// cap.
func headerSize(e *Envelope, f byte) (int, error) {
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
	n := 3 + varintLen(int64(e.Reliability)) + varintLen(int64(e.Ordering)) + varintLen(e.PubNanos)
	if f&flagLink == 0 {
		id := len(e.ID)
		if id == 0 && !e.Name.IsZero() {
			id = nameText
		}
		n += rec.UvarintLen(uint64(id)) + id +
			rec.LenStringLen(e.Type) + rec.LenStringLen(e.Publisher) + 2 +
			varintLen(int64(e.Priority)) + varintLen(int64(e.TTL)) + rec.UvarintLen(uint64(len(e.Payload)))
	} else {
		n += rec.UvarintLen(e.Name.N)
		if f&flagInc != 0 {
			n += rec.UvarintLen(e.Name.Inc)
		}
		if f&flagType != 0 {
			n += rec.LenStringLen(e.Type)
		}
		if f&flagPublisher != 0 {
			n += rec.LenStringLen(e.Publisher)
		}
		if f&flagPriority != 0 {
			n += varintLen(int64(e.Priority))
		}
		if f&flagTTL != 0 {
			n += varintLen(int64(e.TTL))
		}
	}
	if f&flagBirth != 0 {
		n += varintLen(e.Birth.Unix()) + rec.UvarintLen(uint64(e.Birth.Nanosecond()))
	}
	if f&flagVC != 0 {
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
	e := new(Envelope)
	if err := UnmarshalInto(e, data, "", ""); err != nil {
		return nil, err
	}
	e.Payload = slices.Clone(e.Payload)
	return e, nil
}

// UnmarshalInto is Unmarshal into caller-owned storage and without the
// payload's copy: every field of *e is overwritten, and e.Payload is a
// slice of data (every other field is copied out). It is for the caller
// that drops the envelope, or copies its payload, before data changes:
// the receive path, whose frame is valid for the handler's call, and
// routing a frame. Anything else calls Unmarshal. typ and pub are the
// class and the publisher the record most likely spells, as a channel
// knows its class and the node a frame came from, or "": a Type or
// Publisher spelled with their bytes is that string, not a copy. Neither
// is filled in where the record leaves it out. On error *e is left zero.
func UnmarshalInto(e *Envelope, data []byte, typ, pub string) error {
	if err := unmarshalInto(e, data, typ, pub); err != nil {
		*e = Envelope{}
		return fmt.Errorf("codec: unmarshal envelope: %w", err)
	}
	return nil
}

// unmarshalInto is UnmarshalInto, leaving *e in any state on error.
func unmarshalInto(e *Envelope, data []byte, knownType, knownPub string) error {
	r := envReader{Reader: rec.Reader{Buf: data}}
	if format := r.U8(); r.Err == nil && format != envelopeFormat {
		return fmt.Errorf("unknown envelope format 0x%02x", format)
	}
	r.f = r.U8()
	if r.f&flagLink == 0 && r.f&linkFlags != 0 {
		return fmt.Errorf("unknown flags 0x%02x", r.f&linkFlags)
	}
	if enc := r.U8(); r.Err == nil && enc != payloadEncoding {
		return fmt.Errorf("%w %d", ErrPayloadEncoding, enc)
	}
	// The reads below run in lexical order, which is the wire order.
	name, id, typ, pub := r.header(knownType, knownPub)
	if !r.link() {
		r.Uvarint() // the retired sequence numbers, whatever an older build wrote
		r.Uvarint()
	}
	*e = Envelope{
		Name:        name,
		ID:          id,
		Type:        typ,
		Publisher:   pub,
		Reliability: obvent.Reliability(r.intVal()),
		Ordering:    obvent.Ordering(r.intVal()),
		HasPriority: r.f&flagPriority != 0,
	}
	if !r.link() || e.HasPriority {
		e.Priority = r.intVal()
	}
	if !r.link() {
		e.TTL = time.Duration(r.Varint())
	} else if r.f&flagTTL != 0 {
		if e.TTL = time.Duration(r.Varint()); e.TTL == 0 {
			r.Fail("zero TTL under its flag")
		}
	}
	e.PubNanos = r.Varint()
	if r.f&flagBirth != 0 {
		sec, nsec := r.Varint(), r.Uvarint()
		if nsec >= 1e9 {
			r.Fail("Birth nanoseconds %d out of range", nsec)
		}
		e.Birth = time.Unix(sec, int64(nsec))
	}
	if r.f&flagVC != 0 {
		e.VC = vclock.Read(&r.Reader, false)
	}
	e.Payload = r.payload()
	return r.Err
}

// StoredID returns the ID text a stored record spells, a slice of
// record, read off its header without decoding the rest: what a
// certified subscriber keys the event by. It reports false for anything
// that does not start as a stored record does.
func StoredID(record []byte) ([]byte, bool) {
	r := rec.Reader{Buf: record}
	if r.U8() != envelopeFormat || r.U8()&flagLink != 0 || r.U8() != payloadEncoding {
		return nil, false
	}
	id := r.Span("ID", 0, maxEnvelopeString)
	return id, r.Err == nil
}

// envReader reads an envelope's fields off the shared record cursor; f
// is the record's flags byte.
type envReader struct {
	rec.Reader
	f byte
}

// link reports whether the record is in the link form.
func (r *envReader) link() bool { return r.f&flagLink != 0 }

// intVal reads a varint that must fit the platform's int.
func (r *envReader) intVal() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// header reads the Name and the Type and Publisher strings. In the
// stored form the ID text comes first: one that is a Name's text, not
// the zero Name's, gives that Name and no text (IdentOf); the link form
// carries the Name's numbers and no text. A Type or Publisher spelled
// with the bytes of knownType or knownPub is that string, not a copy.
// The strings left, of three adjacent ones, are converted once, from the
// first of them to the last, and are slices of that. In the link form a
// string its flag leaves out is empty, and one it flags is not.
func (r *envReader) header(knownType, knownPub string) (name Name, id, typ, pub string) {
	if r.link() {
		name.N = r.Uvarint()
		if r.f&flagInc != 0 {
			name.Inc = r.NonZero("incarnation")
		}
	}
	var at, n [3]int
	for i, what := range [...]string{"ID", "Type", "Publisher"} {
		lo := 0
		switch {
		case i == 0 && r.link(),
			i == 1 && r.link() && r.f&flagType == 0,
			i == 2 && r.link() && r.f&flagPublisher == 0:
			continue
		case r.link():
			lo = 1
		}
		b := r.Span(what, lo, maxEnvelopeString)
		at[i], n[i] = r.Off-len(b), len(b)
	}
	if r.Err != nil {
		return Name{}, "", "", ""
	}
	out := [3]string{"", knownType, knownPub}
	for i := range out {
		b := r.Buf[at[i] : at[i]+n[i]]
		switch {
		case n[i] == 0:
			out[i] = ""
		case i == 0:
			if named, ok := ParseName(b); ok && !named.IsZero() {
				name, n[i] = named, 0
			}
		case string(b) == out[i]:
			n[i] = 0
		}
	}
	start, end := -1, 0
	for i := range n {
		if n[i] > 0 {
			if start < 0 {
				start = at[i]
			}
			end = at[i] + n[i]
		}
	}
	if start >= 0 {
		block := string(r.Buf[start:end])
		for i := range n {
			if n[i] > 0 {
				out[i] = block[at[i]-start:][:n[i]]
			}
		}
	}
	return name, out[0], out[1], out[2]
}

// payload reads the final field, which must end the record: stored,
// behind its length; in the link form, the rest of the record. The
// result aliases the frame.
func (r *envReader) payload() []byte {
	var b []byte
	if r.link() {
		if r.Err == nil {
			b, r.Off = r.Buf[r.Off:], len(r.Buf)
		}
	} else {
		b = r.Span("payload", 0, maxEnvelopePayload)
	}
	if r.End() != nil || len(b) == 0 {
		return nil
	}
	return b
}
