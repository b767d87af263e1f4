// Package codec implements the serialization substrate for obvents
// (paper LM1, "default serialization mechanism"). It plays the role of
// Java serialization in the paper: obvents are "objects that are
// serialized, sent over the wire, and deserialized" (§3.1) without the
// application implementing any specific operations or hooks.
//
// An obvent travels as an Envelope: a wire record carrying the obvent's
// class name, its encoded state (the class's compiled encoding, the one
// payload encoding; wire.go), and the metadata needed by the delivery
// semantics of its type (sequence numbers, vector clock, priority,
// expiry). The envelope is the "reified message" of paper
// §3.1.2 — the obvent reflects its semantics at every moment of the
// transfer. Its own framing is a fixed binary layout (framing.go).
//
// An envelope's Payload is read-only from the moment it exists: the
// decoders copy what they keep of it and nothing writes to it (until
// Release hands the buffer to the next EncodeFrom), which is
// what lets UnmarshalInto hand out a slice of the frame where
// Unmarshal copies (framing.go says who may call which), and Seal hand
// out a record that is the payload with a header written in front of it
// (Encode leaves the room). No envelope struct is allocated per event on
// the wire path: a publisher's comes from a pool (EncodeFrom, Release), a
// subscriber's is decoded into storage it reuses (UnmarshalInto). Nor is
// a payload buffer: whatever keeps a record copies it, and the pooled
// envelope keeps its buffer from one EncodeFrom to the next.
package codec

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"govents/internal/obvent"
	"govents/internal/rec"
	"govents/internal/vclock"
)

// ErrUnregistered is the sentinel wrapped whenever an envelope names an
// obvent class the local registry does not know: the process cannot
// reconstruct instances of a type it never registered. Detect it with
// errors.Is at any layer.
var ErrUnregistered = errors.New("codec: unregistered obvent class")

// Envelope is the wire representation of a published obvent.
type Envelope struct {
	// Name names this publication (not the clone: every delivery of the
	// same publication shares the Name; every clone is a distinct
	// object). The disseminator names an envelope as it publishes it
	// (core.Disseminator.PublishEnvelope); Encode leaves it zero.
	Name Name
	// ID is the event's ID text where it is not a Name's: what a stored
	// record of an earlier build may spell (the disk goldens' "s0"), or
	// what a caller chose. A stored record spells the Name's text, and
	// Unmarshal of one gives the Name and leaves ID empty (IdentOf), as
	// it is on an envelope that came off a link, which carries the Name's
	// numbers only. IDText renders the Name for whoever needs text (a
	// trace record, a delivery-aware handler); the certified path keys
	// the pair (Ident) and renders nothing. When set, it is what a stored
	// record of the envelope spells.
	ID string
	// Type is the registered wire name of the obvent's concrete class.
	Type string
	// Payload is the serialized obvent value: the class's compiled
	// encoding (internal/wire).
	Payload []byte

	// Publisher is the node that published the obvent.
	Publisher string
	// VC is the publisher's vector clock at publication (causal
	// ordering metadata). Nil unless the type requests causal order.
	// FIFO and total order need no field: the links number what they
	// carry (internal/multicast).
	VC vclock.VC

	// Reliability and Ordering mirror the resolved semantics of the
	// obvent type so that intermediate hosts can route correctly
	// without hosting the Go type.
	Reliability obvent.Reliability
	Ordering    obvent.Ordering

	// Priority is the transmission priority (Prioritary semantics).
	Priority int
	// HasPriority distinguishes priority 0 from "no priority".
	HasPriority bool

	// Birth and TTL describe the validity window (Timely semantics).
	// TTL zero means no expiry.
	Birth time.Time
	TTL   time.Duration

	// PubNanos is the publisher's wall clock (UnixNano) at encode time;
	// subscribers time end-to-end publish→deliver latency against it.
	// Write-once: stamped by Encode, never mutated afterwards (envelopes
	// are shared across concurrent routes). Always on the wire; zero
	// means the publisher took no stamp, so receivers gate on
	// PubNanos > 0.
	PubNanos int64

	// value is the obvent EncodeFrom encoded into Payload, kept when
	// decoding Payload gives it back (Value); nil otherwise.
	value obvent.Obvent

	// room is the buffer Encode wrote Payload into, behind headroom for
	// the record's header (Seal); nil for an envelope Encode did not
	// make. A copy of the envelope shares it, and the claim on it.
	room *headroom
}

// encoded is what EncodeFrom takes from encodedPool: the envelope and
// its payload's headroom in one object.
type encoded struct {
	env  Envelope
	room headroom
}

// encodedPool recycles what Release hands back, payload buffer included:
// the next EncodeFrom writes into the buffer it finds there.
var encodedPool = sync.Pool{New: func() any { return new(encoded) }}

// maxKeptPayload bounds the buffer a pooled envelope keeps: a rare large
// event does not pin its buffer in the pool.
const maxKeptPayload = 64 << 10

// Value returns the obvent EncodeFrom encoded into the envelope's
// payload when decoding the payload would give back that very value: the
// obvent was published as a value, not a pointer, of a class whose
// encoding is exact (wire.Exact). It is nil for any other envelope, a
// decoded one included.
// A publisher routes on it instead of decoding what it just encoded.
func (e *Envelope) Value() obvent.Obvent { return e.value }

// IDText returns the publication's name as text (Ident.Text).
func (e *Envelope) IDText() string { return Ident{Name: e.Name, ID: e.ID}.Text() }

// Expired reports whether a timely envelope is obsolete at instant now.
func (e *Envelope) Expired(now time.Time) bool {
	if e.TTL == 0 || e.Birth.IsZero() {
		return false
	}
	return now.After(e.Birth.Add(e.TTL))
}

// A Codec encodes and decodes obvents against a type registry.
// Codec is safe for concurrent use.
type Codec struct {
	reg *obvent.Registry

	// codecWire is the compiled wire-codec cache and its counters
	// (wire.go).
	codecWire
}

// New returns a Codec over the given registry.
func New(reg *obvent.Registry) *Codec {
	return &Codec{reg: reg}
}

// Registry returns the codec's obvent type registry.
func (c *Codec) Registry() *obvent.Registry { return c.reg }

// Encode wraps obvent o into an Envelope: it resolves the QoS semantics of
// o's type, stamps timely/priority metadata, and serializes the value.
// Ordering metadata (VC) is left for the dissemination layer to fill in.
func (c *Codec) Encode(o obvent.Obvent) (*Envelope, error) { return c.EncodeFrom("", o) }

// EncodeFrom is Encode for a publisher that names itself on the
// envelope. With every header field but the ordering metadata known, the
// compiled program writes the payload behind room for the envelope's
// full record header, where the first Seal writes it: sealing the
// envelope, or a link form of it, copies no payload. The envelope comes
// from a pool, and the payload is written into the buffer of an earlier
// envelope handed back: a caller done with it may hand it back
// (Release).
func (c *Codec) EncodeFrom(publisher string, o obvent.Obvent) (*Envelope, error) {
	name, err := c.reg.NameOf(o)
	if err != nil {
		return nil, fmt.Errorf("codec: encode: %w", err)
	}
	sem := obvent.Resolve(o)
	enc := encodedPool.Get().(*encoded)
	env := &enc.env
	*env = Envelope{
		Type:        name,
		Publisher:   publisher,
		Reliability: sem.Reliability,
		Ordering:    sem.Ordering,
		PubNanos:    time.Now().UnixNano(),
		room:        &enc.room,
	}
	if sem.Prioritary {
		env.Priority = sem.Priority
		env.HasPriority = true
	}
	if sem.Timely {
		env.TTL = sem.TTL
		env.Birth = sem.Birth
		if env.Birth.IsZero() {
			env.Birth = time.Now()
		}
	}
	// The header as it stands, with a Name's text in place of the empty
	// ID (the disseminator names the envelope before it seals it) and the
	// longest payload length prefix in place of the empty payload's. A
	// header the caps refuse gets no room: Seal reports it.
	off := 0
	if head, err := headerSize(env, recordFlags(env, false)); err == nil {
		off = head + nameText - 1 + rec.UvarintLen(maxEnvelopePayload)
	}
	buf, exact, err := c.encodePayload(enc.room.buf, o, off)
	if err != nil {
		return nil, fmt.Errorf("codec: encode %s: %w", name, err)
	}
	if exact {
		env.value = o
	}
	env.Payload = buf[off:]
	enc.room.buf, enc.room.off, enc.room.enc = buf, off, enc
	return env, nil
}

// Release zeroes an envelope EncodeFrom returned, to which the caller
// holds the only reference, and puts it back in EncodeFrom's pool with
// its payload buffer, which the next EncodeFrom writes into: nothing may
// keep the payload, or a record sealed around it, past Release (whatever
// keeps one copies it). A copy of the envelope may outlive it but must
// not be sealed: it names the room, which the pool hands on. Any other
// envelope, a copy included, is ignored.
func Release(env *Envelope) {
	r := env.room
	if r == nil || r.enc == nil || &r.enc.env != env {
		return
	}
	enc, buf := r.enc, r.buf[:0]
	if cap(buf) > maxKeptPayload {
		buf = nil
	}
	*enc = encoded{}
	enc.room.buf = buf
	encodedPool.Put(enc)
}

// Decode reconstructs the obvent carried by an envelope. Each call
// returns a fresh, distinct value: decoding is the paper's "distributed
// object creation" (§2.1.2) — every subscriber receives a new clone.
func (c *Codec) Decode(e *Envelope) (obvent.Obvent, error) {
	s, err := c.Source(e)
	if err != nil {
		return nil, err
	}
	return s.Clone()
}

// A CloneSource produces per-subscriber clones of one envelope. It
// front-loads the registry lookup so that a dispatcher delivering one
// publication to many local subscriptions pays the (read-locked) type
// resolution once and only the clone cost per clone. A clone is one
// decode of the payload by the class's compiled program, except for a
// flat class: one with no reference kinds, whose payload is decoded and
// boxed once, every Clone returning that same interface value. The box
// cannot be observed to be shared: a value held in an interface is not
// addressable, so no subscriber can write to it, and with no reference
// kinds inside there is nothing to write through. Every assertion
// (As[T]) copies the value out, and that copy is already a deep copy.
//
// A CloneSource is not safe for concurrent use: it belongs to the one
// dispatch invocation that created it.
type CloneSource struct {
	typ     reflect.Type
	name    string
	payload []byte

	// we is the class's compiled program, flatness and scratch pool
	// (wire.go); cw points at the owning codec's wire counters so decode
	// activity is attributed wherever the decode actually happens.
	we *wireEntry
	cw *codecWire

	// shared is a flat class's decoded payload, boxed once.
	shared obvent.Obvent
}

// Source resolves the envelope's obvent class for repeated cloning.
func (c *Codec) Source(e *Envelope) (*CloneSource, error) {
	s := new(CloneSource)
	if err := c.SourceInto(e, s); err != nil {
		return nil, err
	}
	return s, nil
}

// SourceInto is Source into caller-owned storage: dispatch loops reuse
// one CloneSource per lane across envelopes instead of allocating one
// per envelope. Any previous state of s is discarded.
func (c *Codec) SourceInto(e *Envelope, s *CloneSource) error {
	t, ok := c.reg.TypeByName(e.Type)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnregistered, e.Type)
	}
	we := c.wireEntryFor(t)
	if we.prog == nil {
		return fmt.Errorf("codec: decode %s: %w", e.Type, we.err)
	}
	*s = CloneSource{typ: t, name: e.Type, payload: e.Payload, we: we, cw: &c.codecWire}
	return nil
}

// Clone decodes one fresh obvent value — the paper's distributed object
// creation (§2.1.2): every call yields a distinct object.
func (s *CloneSource) Clone() (obvent.Obvent, error) {
	if s.shared != nil {
		return s.shared, nil
	}
	o, err := s.decode()
	if s.we.flat {
		s.shared = o // nil on error: the next Clone decodes again
	}
	return o, err
}

// decode decodes the payload straight to its box. Boxing copies the
// value, so the payload is decoded into a scratch value from the class's
// pool, which goes back zeroed (it pins nothing of the event, and a
// failed decode leaves nothing behind): the box is the one allocation
// beyond what the event's own strings, slices, maps and pointees need.
func (s *CloneSource) decode() (obvent.Obvent, error) {
	p := s.we.scratch.Get()
	if p == nil {
		p = reflect.New(s.typ).Interface()
	}
	v := reflect.ValueOf(p).Elem()
	s.cw.wireDecodes.Add(1)
	var o obvent.Obvent
	err := s.we.prog.Decode(s.payload, v)
	if err == nil {
		o, err = s.box(v)
	} else {
		err = fmt.Errorf("codec: decode %s: %w", s.name, err)
	}
	v.SetZero()
	s.we.scratch.Put(p)
	return o, err
}

// box converts a decoded value to the Obvent interface (copying it into
// the interface box, which completes the clone's independence).
func (s *CloneSource) box(v reflect.Value) (obvent.Obvent, error) {
	o, ok := v.Interface().(obvent.Obvent)
	if !ok {
		// The registry only holds Obvent types, so this indicates a
		// registry/codec mismatch, not user error.
		return nil, fmt.Errorf("codec: decode: %s is not an obvent", s.name)
	}
	return o, nil
}

// isFlat reports whether a value copy of type t is a deep copy: t
// contains, transitively, no kind through which two copies could share
// mutable state. Strings count as flat because their backing bytes are
// immutable. Struct recursion terminates: Go structs cannot contain
// themselves by value.
func isFlat(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	case reflect.Array:
		return isFlat(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isFlat(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		// Pointer, slice, map, chan, func, interface, unsafe.Pointer:
		// a value copy would alias the referent.
		return false
	}
}

// Clone deep-copies an obvent through an encode/decode round trip. It
// implements the per-subscriber cloning that gives the paper's Obvent
// Global/Local Uniqueness properties (§2.1.2).
func (c *Codec) Clone(o obvent.Obvent) (obvent.Obvent, error) {
	e, err := c.Encode(o)
	if err != nil {
		return nil, err
	}
	return c.Decode(e)
}
