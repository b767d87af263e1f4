package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"govents/internal/obvent"
	"govents/internal/vclock"
)

// linkView is e as the link form carries it: the Name's numbers and no
// ID text, and a Priority without its flag does not travel.
func linkView(e *Envelope) *Envelope {
	v := *e
	v.ID = ""
	if !v.HasPriority {
		v.Priority = 0
	}
	return &v
}

// storedView is e as the stored form carries it: the ID text spelled,
// the Name's when e has none, read back as IdentOf reads it (a Name's
// text is that Name, with no text).
func storedView(e *Envelope) *Envelope {
	v := *e
	id := IdentOf(e.IDText())
	v.Name, v.ID = id.Name, id.ID
	return &v
}

// sameEnvelope compares two envelopes field by field, Birth as an
// instant (its location is not on the wire).
func sameEnvelope(a, b *Envelope) bool {
	if !a.Birth.Equal(b.Birth) {
		return false
	}
	x, y := *a, *b
	x.Birth, y.Birth = time.Time{}, time.Time{}
	return reflect.DeepEqual(x, y)
}

// flatFIFOEnvelope is the shape the FIFO wire path frames per event: no
// optional field set.
func flatFIFOEnvelope() *Envelope {
	return &Envelope{
		Name:        Name{Inc: 1790000000123456, N: 70000},
		Type:        "bench.Event",
		Payload:     bytes.Repeat([]byte{0xA5}, 60),
		Publisher:   "127.0.0.1:40123",
		Reliability: obvent.ReliableDelivery,
		Ordering:    obvent.FIFO,
		PubNanos:    1790000000123456789,
	}
}

// everyFieldEnvelope sets every field, optional ones included.
func everyFieldEnvelope() *Envelope {
	e := flatFIFOEnvelope()
	e.VC = vclock.VC{"a": 1, "node-2": math.MaxUint64, "": 7}
	e.Priority, e.HasPriority = -3, true
	e.Birth = time.Unix(1790000000, 999999999)
	e.TTL = 5 * time.Second
	return e
}

func TestEnvelopeRoundTrip(t *testing.T) {
	long := strings.Repeat("x", maxEnvelopeString)
	with := func(mut func(*Envelope)) *Envelope {
		e := flatFIFOEnvelope()
		mut(e)
		return e
	}
	cases := []struct {
		name string
		env  *Envelope
	}{
		{"zero", &Envelope{}},
		{"flat FIFO", flatFIFOEnvelope()},
		{"every field", everyFieldEnvelope()},
		{"VC single key", with(func(e *Envelope) { e.VC = vclock.VC{"n": 0} })},
		{"priority zero", with(func(e *Envelope) { e.HasPriority = true })},
		{"priority without flag", with(func(e *Envelope) { e.Priority = 12 })},
		{"negative numbers", with(func(e *Envelope) {
			e.Reliability, e.Ordering, e.Priority = -1, math.MinInt32, math.MinInt32
			e.TTL, e.PubNanos = math.MinInt64, math.MinInt64
		})},
		{"largest numbers", with(func(e *Envelope) {
			e.Reliability, e.Ordering, e.Priority = math.MaxInt32, math.MaxInt32, math.MaxInt32
			e.TTL, e.PubNanos = math.MaxInt64, math.MaxInt64
		})},
		{"birth at the epoch", with(func(e *Envelope) { e.Birth = time.Unix(0, 0) })},
		{"birth before the epoch", with(func(e *Envelope) { e.Birth = time.Unix(-1, 1) })},
		// Both are outside what a bare UnixNano can carry.
		{"birth far past", with(func(e *Envelope) { e.Birth = time.Date(1, 1, 1, 0, 0, 1, 5, time.UTC) })},
		{"birth far future", with(func(e *Envelope) { e.Birth = time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC) })},
		{"birth in another zone", with(func(e *Envelope) {
			e.Birth = time.Date(2026, 9, 27, 12, 0, 0, 0, time.FixedZone("x", 5*3600))
		})},
		{"64 KiB-1 strings", with(func(e *Envelope) {
			e.ID, e.Type, e.Publisher = long, long, long
			e.VC = vclock.VC{long: 1}
		})},
		// The forms a link carries (Type, and a self-Publisher, left out)
		// and every other mix of empty and set header strings: they are
		// read as slices of one span.
		{"no Type", with(func(e *Envelope) { e.Type = "" })},
		{"no Type, no Publisher", with(func(e *Envelope) { e.Type, e.Publisher = "", "" })},
		{"no ID", with(func(e *Envelope) { e.Name = Name{} })},
		{"Type only", with(func(e *Envelope) { e.Name, e.Publisher = Name{}, "" })},
		{"Publisher only", with(func(e *Envelope) { e.Name, e.Type = Name{}, "" })},
		{"no Publisher", with(func(e *Envelope) { e.Publisher = "" })},
		{"no header string", with(func(e *Envelope) { e.Name, e.Type, e.Publisher = Name{}, "", "" })},
		{"64 KiB-1 ID alone", with(func(e *Envelope) { e.Name, e.ID, e.Type, e.Publisher = Name{}, long, "", "" })},
		{"64 KiB-1 Publisher alone", with(func(e *Envelope) { e.Name, e.Type, e.Publisher = Name{}, "", long })},
		// A Name's text as a stored record of an earlier build spells it,
		// and the incarnation a numbered link leaves out.
		{"ID text of a Name", with(func(e *Envelope) { e.ID = "0123456789abcdef0123456789abcdef" })},
		{"count only", with(func(e *Envelope) { e.Name.Inc = 0 })},
		{"widest Name", with(func(e *Envelope) { e.Name = Name{Inc: math.MaxUint64, N: math.MaxUint64} })},
		{"64 KiB payload", with(func(e *Envelope) { e.Payload = bytes.Repeat([]byte{1}, 64<<10) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Stored, with the Name's text, and as a link carries it: the
			// Name's numbers, the incarnation under its flag, and a
			// Priority without its flag left out.
			for _, form := range []struct {
				name string
				seal func(*Envelope) ([]byte, error)
				link bool
				want *Envelope
			}{
				{"stored", Marshal, false, storedView(tc.env)},
				{"link", SealLink, true, linkView(tc.env)},
			} {
				data, err := form.seal(tc.env)
				if err != nil {
					t.Fatalf("%s: %v", form.name, err)
				}
				if head, _ := headerSize(tc.env, recordFlags(tc.env, form.link)); head+len(tc.env.Payload) != len(data) {
					t.Errorf("%s: headerSize = %d and a payload of %d bytes, record has %d bytes", form.name, head, len(tc.env.Payload), len(data))
				}
				if inc := data[1]&flagInc != 0; inc != (form.link && tc.env.Name.Inc != 0) {
					t.Errorf("%s: the record's incarnation flag is %v for incarnation %d", form.name, inc, tc.env.Name.Inc)
				}
				back, err := Unmarshal(data)
				if err != nil {
					t.Fatalf("%s: Unmarshal: %v", form.name, err)
				}
				if !sameEnvelope(form.want, back) {
					t.Errorf("%s: round trip:\n got %+v\nwant %+v", form.name, back, form.want)
				}
			}
		})
	}
	// The compiled encoding is the only one: a record naming an earlier
	// build's gob payload (encoding 0), or an unassigned encoding, does
	// not come back.
	const encAt = 2 // after format and flags
	for _, tc := range []struct {
		name string
		enc  byte
	}{
		{"gob payload encoding", 0},
		{"unassigned payload encoding", 0xFF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := Marshal(flatFIFOEnvelope())
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if data[encAt] != payloadEncoding {
				t.Fatalf("record names encoding %d, want %d", data[encAt], payloadEncoding)
			}
			data[encAt] = tc.enc
			e, err := Unmarshal(data)
			if !errors.Is(err, ErrPayloadEncoding) {
				t.Fatalf("Unmarshal = %+v, %v; want %v", e, err, ErrPayloadEncoding)
			}
			if want := fmt.Sprintf("%v %d", ErrPayloadEncoding, tc.enc); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		})
	}
}

// A nil payload and an empty one are one record, which decodes as nil;
// likewise the vector clock.
func TestEnvelopeEmptyIsNil(t *testing.T) {
	nilData, err := Marshal(&Envelope{ID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	emptyData, err := Marshal(&Envelope{ID: "x", Payload: []byte{}, VC: vclock.VC{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nilData, emptyData) {
		t.Fatalf("nil and empty differ on the wire:\n%x\n%x", nilData, emptyData)
	}
	back, err := Unmarshal(emptyData)
	if err != nil {
		t.Fatal(err)
	}
	if back.Payload != nil || back.VC != nil {
		t.Errorf("Payload = %#v, VC = %#v; want nil, nil", back.Payload, back.VC)
	}
}

func TestMarshalRejectsOverlongFields(t *testing.T) {
	tooLong := strings.Repeat("x", maxEnvelopeString+1)
	bigVC := make(vclock.VC, maxEnvelopeVC+1)
	for i := 0; i <= maxEnvelopeVC; i++ {
		bigVC[string(binary.BigEndian.AppendUint32(nil, uint32(i)))] = 1
	}
	cases := map[string]*Envelope{
		"ID":        {ID: tooLong},
		"Type":      {Type: tooLong},
		"Publisher": {Publisher: tooLong},
		"VC key":    {VC: vclock.VC{tooLong: 1}},
		"VC size":   {VC: bigVC},
	}
	for name, env := range cases {
		if _, err := Marshal(env); err == nil {
			t.Errorf("%s: Marshal accepted an over-long field", name)
		}
	}
	prefix := []byte("prefix")
	out, err := AppendEnvelope(prefix, cases["ID"])
	if err == nil || !bytes.Equal(out, prefix) {
		t.Errorf("AppendEnvelope on error = %q, %v; want the prefix and an error", out, err)
	}
}

func TestAppendEnvelopeKeepsPrefix(t *testing.T) {
	env := everyFieldEnvelope()
	out, err := AppendEnvelope([]byte("prefix"), env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, []byte("prefix")) {
		t.Fatalf("prefix lost: %q", out[:6])
	}
	back, err := Unmarshal(out[6:])
	if err != nil || !sameEnvelope(storedView(env), back) {
		t.Fatalf("record after the prefix: %+v, %v", back, err)
	}
}

// Every strict prefix of a valid record must be rejected: the decoder
// never reads past the bytes it was given and never accepts a cut frame.
func TestUnmarshalTruncated(t *testing.T) {
	for _, env := range []*Envelope{flatFIFOEnvelope(), everyFieldEnvelope()} {
		data, err := Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if e, err := Unmarshal(data[:n:n]); err == nil {
				t.Fatalf("accepted %d of %d bytes: %+v", n, len(data), e)
			}
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	valid, err := Marshal(&Envelope{ID: "i", Type: "t", Publisher: "p", Payload: []byte("pay")})
	if err != nil {
		t.Fatal(err)
	}
	// valid is: format, flags, Enc, three 1-byte strings with 1-byte
	// lengths, seven 1-byte numbers, the payload's length, the payload.
	const flagsAt, idLenAt, typeLenAt, pubLenAt, seqAt, payloadLenAt = 1, 3, 5, 7, 9, 16
	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), valid[:at]...)
		out = append(out, b...)
		return append(out, valid[at+1:]...)
	}
	var gobFramed bytes.Buffer
	if err := gob.NewEncoder(&gobFramed).Encode(&Envelope{ID: "i", Type: "t"}); err != nil {
		t.Fatal(err)
	}
	overflow := bytes.Repeat([]byte{0xFF}, 10)
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"empty", "truncated", nil},
		{"text", "unknown envelope format", []byte("not an envelope record")},
		{"gob-framed record of an older build", "unknown envelope format", gobFramed.Bytes()},
		{"unknown flag", "unknown flags", patch(flagsAt, 0x10)},
		{"link-form flag on a stored record", "unknown flags", patch(flagsAt, flagType)},
		{"incarnation flag on a stored record", "unknown flags", patch(flagsAt, flagInc)},
		{"trailing byte", "trailing", append(append([]byte(nil), valid...), 0)},
		{"string longer than the frame", "truncated", patch(idLenAt, 0x7F)},
		{"string over its cap", "ID of 65536 bytes exceeds", patch(idLenAt, 0x80, 0x80, 0x04)},
		{"second string longer than the frame", "Type of 127 bytes truncated", patch(typeLenAt, 0x7F)},
		{"second string over its cap", "Type of 65536 bytes exceeds", patch(typeLenAt, 0x80, 0x80, 0x04)},
		{"third string longer than the frame", "Publisher of 127 bytes truncated", patch(pubLenAt, 0x7F)},
		{"third string over its cap", "Publisher of 65536 bytes exceeds", patch(pubLenAt, 0x80, 0x80, 0x04)},
		{"overlong string length", "overlong", patch(pubLenAt, 0x81, 0x00)},
		{"payload longer than the frame", "truncated", patch(payloadLenAt, 4)},
		{"payload shorter than the frame", "trailing", patch(payloadLenAt, 2)},
		{"payload over its cap", "exceeds", patch(payloadLenAt, 0x81, 0x80, 0x80, 0x80, 0x04)},
		{"varint overflow", "overflow", patch(seqAt, append(overflow, 0x02)...)},
		{"birth nanoseconds out of range", "out of range",
			append(patch(flagsAt, flagBirth)[:payloadLenAt], 0, 0x80, 0x94, 0xEB, 0xDC, 0x03, 0)},
		{"empty vector clock", "vector clock", append(patch(flagsAt, flagVC)[:payloadLenAt], 0, 0)},
		{"vector clock larger than the frame", "vector clock",
			append(patch(flagsAt, flagVC)[:payloadLenAt], 0xFF, 0xFF, 0x03, 0)},
		{"duplicate vector clock key", "duplicate",
			append(patch(flagsAt, flagVC)[:payloadLenAt], 2, 1, 'k', 1, 1, 'k', 2, 0)},
	}
	// The link form sends a field its flag names, and no other: a flagged
	// string is not empty, and a flagged TTL or incarnation not zero. It
	// always sends the Name's count (1 here).
	link := func(flags byte, fields ...byte) []byte {
		return append([]byte{envelopeFormat, flagLink | flags, payloadEncoding, 1}, fields...)
	}
	cases = append(cases, []struct {
		name, want string
		data       []byte
	}{
		{"link form: empty Type under its flag", "Type of 0 bytes", link(flagType, 0, 0, 0, 0)},
		{"link form: empty Publisher under its flag", "Publisher of 0 bytes", link(flagPublisher, 0, 0, 0, 0)},
		{"link form: zero TTL under its flag", "zero TTL", link(flagTTL, 0, 0, 0, 0)},
		{"link form: Type cut short", "truncated", link(flagType, 5, 't')},
		{"link form: no Priority under its flag", "truncated", link(flagPriority, 0, 0)},
		{"link form: zero incarnation under its flag", "zero incarnation", link(flagInc, 0, 0, 0, 0)},
		{"link form: incarnation cut short", "truncated", link(flagInc, 0x80)},
		{"link form: no count", "truncated", []byte{envelopeFormat, flagLink, payloadEncoding}},
		{"link form: count cut short", "truncated", []byte{envelopeFormat, flagLink, payloadEncoding, 0xFF, 0xFF}},
		{"link form: overlong count", "overlong", []byte{envelopeFormat, flagLink, payloadEncoding, 0x80, 0x00, 0, 0, 0}},
	}...)
	for _, tc := range cases {
		e, err := Unmarshal(tc.data)
		if err == nil {
			t.Errorf("%s: accepted: %+v", tc.name, e)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// The decoded payload must not alias the frame: transports and logs
// recycle their read buffers.
func TestUnmarshalCopiesPayload(t *testing.T) {
	env := flatFIFOEnvelope()
	data, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	if !sameEnvelope(storedView(env), back) {
		t.Errorf("envelope changed with the frame: %+v", back)
	}
}

// The framing's allocation budget is what took it off the top of the
// benchmark's ledger; hold it.
func TestEnvelopeFramingAllocs(t *testing.T) {
	env := flatFIFOEnvelope()
	data, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := Marshal(env); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Marshal: %v allocs, want <= 1", n)
	}
	// The struct, the block the three strings are slices of, and the
	// payload.
	if n := testing.AllocsPerRun(200, func() {
		if _, err := Unmarshal(data); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("Unmarshal: %v allocs, want <= 3", n)
	}
	// Decoded into a caller's envelope, the block is all: a record with
	// no header string allocates nothing.
	var into Envelope
	if n := testing.AllocsPerRun(200, func() {
		if err := UnmarshalInto(&into, data, "", ""); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("UnmarshalInto: %v allocs, want <= 1", n)
	}
	bare, err := Marshal(&Envelope{PubNanos: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := UnmarshalInto(&into, bare, "", ""); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("UnmarshalInto of a record with no header string: %v allocs, want 0", n)
	}
	// Nor does the link form a FIFO link carries: no Type, no Publisher
	// and, the Name being numbers, no ID text.
	onLink := flatFIFOEnvelope()
	onLink.Type, onLink.Publisher, onLink.Name.Inc = "", "", 0
	linkData, err := SealLink(onLink)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := UnmarshalInto(&into, linkData, "", ""); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("UnmarshalInto of a FIFO link record: %v allocs, want 0", n)
	}
	buf := make([]byte, 0, 2*len(data))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := AppendEnvelope(buf, env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendEnvelope into spare capacity: %v allocs, want 0", n)
	}
}

// FuzzEnvelopeUnmarshal feeds raw bytes to the peer- and disk-facing
// decoder. It must never panic; what it accepts holds no more variable
// data than the input carried (no length claim is trusted beyond the
// bytes behind it) and survives a re-marshal unchanged. Decoded again
// with UnmarshalInto over an envelope with every field set, as a
// receiver's reused scratch may be, it yields the same envelope, keeping
// nothing of the old one (a vector clock, a birth, a priority), or
// rejects it too and leaves the target zero.
func FuzzEnvelopeUnmarshal(f *testing.F) {
	link := flatFIFOEnvelope() // as a link carries it: the channel names the class, the origin the publisher
	link.Type, link.Publisher = "", ""
	noType := flatFIFOEnvelope() // relayed for another node: the publisher travels
	noType.Type = ""
	for _, env := range []*Envelope{{}, flatFIFOEnvelope(), everyFieldEnvelope(), link, noType} {
		data, err := Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte("not an envelope record"))
	for _, env := range []*Envelope{flatFIFOEnvelope(), everyFieldEnvelope(), link, noType} {
		data, err := SealLink(env) // the incarnation travels
		if err != nil || data[1]&flagInc == 0 {
			f.Fatalf("SealLink of %+v: %x, %v", env, data, err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:5]) // the incarnation cut short
	}
	// The link form's presence bits one at a time, under the count alone,
	// as a numbered link carries it; and a flagged field that is empty or
	// zero, which no encoder writes.
	for _, mut := range []func(*Envelope){
		func(e *Envelope) { e.Type, e.Publisher = "", "" },
		func(e *Envelope) { e.Publisher = "" },
		func(e *Envelope) { e.Type = "" },
		func(e *Envelope) { e.Type, e.Publisher, e.TTL = "", "", time.Second },
		func(e *Envelope) { e.Type, e.Publisher, e.Priority, e.HasPriority = "", "", 0, true },
	} {
		e := flatFIFOEnvelope()
		e.Name.Inc = 0
		mut(e)
		data, err := SealLink(e)
		if err != nil || data[1]&flagLink == 0 || data[1]&flagInc != 0 {
			f.Fatalf("SealLink of %+v: %x, %v", e, data, err)
		}
		f.Add(data)
	}
	for _, f2 := range []byte{flagType, flagPublisher, flagTTL} {
		f.Add([]byte{envelopeFormat, flagLink | f2, payloadEncoding, 0, 0, 0, 0, 0, 0})
	}
	// A count cut short, alone and under an incarnation; and the widest
	// Name.
	f.Add([]byte{envelopeFormat, flagLink, payloadEncoding, 0x80})
	f.Add([]byte{envelopeFormat, flagLink | flagInc, payloadEncoding, 0xFF, 0xFF})
	widest := flatFIFOEnvelope()
	widest.Name = Name{Inc: math.MaxUint64, N: math.MaxUint64}
	if data, err := SealLink(widest); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Unmarshal(data)
		reused := everyFieldEnvelope()
		if errInto := UnmarshalInto(reused, data, "", ""); (errInto == nil) != (err == nil) {
			t.Fatalf("Unmarshal: %v, but UnmarshalInto over a filled envelope: %v", err, errInto)
		}
		if err != nil {
			if !reflect.ValueOf(*reused).IsZero() {
				t.Fatalf("a rejected input left %+v in the target", reused)
			}
			return
		}
		if !sameEnvelope(env, reused) {
			t.Fatalf("decoded over a filled envelope:\n got %+v\nwant %+v", reused, env)
		}
		// Strings a caller knows change nothing but where a string's bytes
		// live, whether the record spells them or others.
		flat := flatFIFOEnvelope()
		var known Envelope
		if err := UnmarshalInto(&known, data, flat.Type, flat.Publisher); err != nil || !sameEnvelope(&known, reused) {
			t.Fatalf("decoded knowing %q and %q:\n got %+v, %v\nwant %+v", flat.Type, flat.Publisher, known, err, reused)
		}
		held := len(env.ID) + len(env.Type) + len(env.Publisher) + len(env.Payload)
		for k := range env.VC {
			held += len(k)
		}
		if held > len(data) || 2*len(env.VC) > len(data) {
			t.Fatalf("decoded %d variable bytes and %d clock entries from %d input bytes", held, len(env.VC), len(data))
		}
		if data[1]&flagLink != 0 && env.ID != "" {
			t.Fatalf("a link record decoded to the ID text %q", env.ID)
		}
		again, err := Marshal(env)
		if err != nil {
			t.Fatalf("re-marshal of an accepted envelope: %v", err)
		}
		back, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("unmarshal of the re-marshaled envelope: %v", err)
		}
		if want := storedView(env); !sameEnvelope(want, back) {
			t.Fatalf("re-marshal changed the envelope:\n got %+v\nwant %+v", back, want)
		}
		// The stored form and the link form each decode to the envelope
		// (the stored form with the Name's text, the link form with no
		// text and less a Priority without its flag, which it does not
		// carry), and each re-encodes byte for byte in its own form. A
		// clock of two entries or more is written in map order, so there
		// only the fields are compared.
		for _, link := range []bool{false, true} {
			f := recordFlags(env, link)
			head, err := headerSize(env, f)
			if err != nil {
				t.Fatal(err)
			}
			rec := appendRecord(nil, head, env, f)
			want := storedView(env)
			if link {
				want = linkView(env)
			}
			back, err := Unmarshal(rec)
			if err != nil || !sameEnvelope(want, back) {
				t.Fatalf("the link=%v form decodes to %+v, %v; want %+v", link, back, err, want)
			}
			if len(env.VC) > 1 {
				continue
			}
			if again := appendRecord(nil, head, back, f); !bytes.Equal(again, rec) {
				t.Fatalf("the link=%v form re-encodes as\n%x, was\n%x", link, again, rec)
			}
		}
	})
}
