// Package codec implements the serialization substrate for obvents
// (paper LM1, "default serialization mechanism"). It plays the role of
// Java serialization in the paper: obvents are "objects that are
// serialized, sent over the wire, and deserialized" (§3.1) without the
// application implementing any specific operations or hooks.
//
// An obvent travels as an Envelope: a wire record carrying the obvent's
// class name, its encoded state (a compiled per-class encoding, or gob
// for classes the compiler rejects; wire.go), and the metadata needed by
// the delivery semantics of its type (sequence numbers, vector clock,
// priority, expiry). The envelope is the "reified message" of paper
// §3.1.2 — the obvent reflects its semantics at every moment of the
// transfer. Its own framing is a fixed binary layout (framing.go).
//
// An envelope's Payload is read-only from the moment it exists: the
// decoders copy what they keep of it and nothing writes to it, which is
// what lets UnmarshalAlias hand out a slice of the frame where
// Unmarshal copies (framing.go says who may call which).
package codec

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"govents/internal/obvent"
	"govents/internal/vclock"
	"govents/internal/wire"
)

// ErrUnregistered is the sentinel wrapped whenever an envelope names an
// obvent class the local registry does not know: the process cannot
// reconstruct instances of a type it never registered. Detect it with
// errors.Is at any layer.
var ErrUnregistered = errors.New("codec: unregistered obvent class")

// Envelope is the wire representation of a published obvent.
type Envelope struct {
	// ID uniquely identifies this publication (not the clone: every
	// delivery of the same publication shares the ID; every clone is a
	// distinct object).
	ID string
	// Type is the registered wire name of the obvent's concrete class.
	Type string
	// Payload is the serialized obvent value, in the encoding named by
	// Enc.
	Payload []byte
	// Enc identifies the payload encoding: EncGob (the zero value — the
	// self-describing gob encoding, the only one a wire-incapable peer
	// reads) or EncWire (the compact per-class compiled encoding,
	// wire.go). It travels as its own byte of the envelope record.
	Enc uint8

	// Publisher is the node that published the obvent.
	Publisher string
	// Seq is the per-publisher, per-class publication sequence number
	// (FIFO ordering metadata).
	Seq uint64
	// VC is the publisher's vector clock at publication (causal
	// ordering metadata). Nil unless the type requests causal order.
	VC vclock.VC
	// GlobalSeq is the sequencer-assigned total-order number. Zero
	// until a sequencer stamps it.
	GlobalSeq uint64

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
}

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

	// flat caches, per concrete class (reflect.Type -> bool), whether a
	// plain value copy of the struct is already a deep copy — i.e. the
	// type transitively contains no reference kinds. A type's layout
	// never changes once registered, so entries are valid forever.
	flat sync.Map

	// codecCopiers is the compiled deep-copier cache for pointer-bearing
	// classes (copier.go).
	codecCopiers

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
// Ordering metadata (Seq, VC, GlobalSeq) is left for the dissemination
// layer to fill in.
func (c *Codec) Encode(o obvent.Obvent) (*Envelope, error) {
	name, err := c.reg.NameOf(o)
	if err != nil {
		return nil, fmt.Errorf("codec: encode: %w", err)
	}
	payload, enc, err := c.encodePayload(o)
	if err != nil {
		return nil, fmt.Errorf("codec: encode %s: %w", name, err)
	}
	sem := obvent.Resolve(o)
	env := &Envelope{
		ID:          NewID(),
		Type:        name,
		Payload:     payload,
		Enc:         enc,
		Reliability: sem.Reliability,
		Ordering:    sem.Ordering,
		PubNanos:    time.Now().UnixNano(),
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
	return env, nil
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
// resolution once and only the clone cost per clone. Three clone
// strategies exist, resolved per class at Source time:
//
//   - modeFlat: pointer-free classes. The payload is decoded once and
//     boxed once; every Clone returns that same interface value. The
//     box cannot be observed to be shared: a value held in an interface
//     is not addressable, so no subscriber can write to it, and with no
//     reference kinds inside there is nothing to write through. Every
//     assertion (As[T]) copies the value out, and that copy is already
//     a deep copy.
//   - modeCopier: pointer-bearing classes with a compiled deep copier
//     (copier.go). The payload is decoded once into a prototype; every
//     clone is one compiled deep copy of it — no per-clone wire decode —
//     and the last one (CloneLast) is the prototype itself.
//   - modeGob: classes the copier compiler rejects. Every clone pays
//     the full gob decode, as all classes originally did.
//
// A CloneSource is not safe for concurrent use: it belongs to the one
// dispatch invocation that created it.
type CloneSource struct {
	typ     reflect.Type
	name    string
	payload []byte

	// enc is the payload encoding (Envelope.Enc); wp is the compiled
	// wire program resolved for compact payloads (wire.go).
	enc uint8
	wp  *wire.Prog
	// cw points at the owning codec's wire counters so decode activity
	// is attributed wherever the decode actually happens.
	cw *codecWire

	mode cloneMode
	// copy is the compiled deep copier (modeCopier only).
	copy copyFn
	// proto is the payload decoded once (modeFlat/modeCopier), valid
	// after the first successful Clone.
	proto reflect.Value
	// shared is the decoded payload boxed once (modeFlat only).
	shared obvent.Obvent
	// scratch pools the class's scratch values, as *T (compact payloads
	// only; see decodeFlat).
	scratch *sync.Pool
}

// cloneMode selects a CloneSource's per-clone strategy.
type cloneMode uint8

const (
	// modeGob decodes the payload per clone (fallback).
	modeGob cloneMode = iota
	// modeFlat shares one immutable box of the decoded prototype.
	modeFlat
	// modeCopier deep-copies the decoded prototype with a compiled
	// copier.
	modeCopier
)

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
	*s = CloneSource{typ: t, name: e.Type, payload: e.Payload, enc: e.Enc, cw: &c.codecWire}
	switch e.Enc {
	case EncGob:
	case EncWire:
		we := c.wireEntryFor(t)
		if we.prog == nil {
			// Compilation is deterministic per layout, so a compact
			// payload for a class we reject means the peer's layout for
			// this class differs from ours — refuse rather than misread.
			return fmt.Errorf("codec: decode %s: compact payload for a class with no wire program", e.Type)
		}
		s.wp, s.scratch = we.prog, &we.scratch
	default:
		return fmt.Errorf("codec: decode %s: unsupported payload encoding %d", e.Type, e.Enc)
	}
	if c.flatType(t) {
		s.mode = modeFlat
	} else if fn := c.copierFor(t); fn != nil {
		s.mode = modeCopier
		s.copy = fn
	}
	return nil
}

// Clone decodes one fresh obvent value — the paper's distributed object
// creation (§2.1.2): every call yields a distinct object.
func (s *CloneSource) Clone() (obvent.Obvent, error) {
	if s.mode == modeGob {
		v, err := s.decodeNew()
		if err != nil {
			return nil, err
		}
		return s.box(v)
	}
	// Prototype modes: decode the payload once, then clone off the
	// prototype. With no reference kinds (modeFlat), the one boxed value
	// serves every clone — strings are immutable, so sharing their
	// backing bytes is safe. Otherwise (modeCopier) the compiled copier
	// rebuilds the prototype's pointee,
	// slice and map structure with fresh allocations; the prototype is a
	// decoded tree (gob output is always a tree, and the wire decoder
	// likewise allocates every pointee fresh — no aliasing, no cycles),
	// so the copy is indistinguishable from another decode of the
	// payload.
	if s.shared != nil {
		return s.shared, nil
	}
	if s.mode == modeFlat && s.scratch != nil {
		var err error
		s.shared, err = s.decodeFlat() // nil on error
		return s.shared, err
	}
	if !s.proto.IsValid() {
		v, err := s.decodeNew()
		if err != nil {
			return nil, err
		}
		s.proto = v
	}
	if s.mode == modeFlat {
		var err error
		s.shared, err = s.box(s.proto) // nil on error
		return s.shared, err
	}
	n := reflect.New(s.typ).Elem()
	s.copy(n, s.proto)
	return s.box(n)
}

// CloneLast is Clone for the last clone a caller takes of this source:
// a class with a compiled copier hands out the decoded prototype itself
// instead of one more copy of it (N clones: one decode, N−1 copies) and
// forgets it, so a Clone after this decodes again. The other modes have
// nothing to give away and clone as ever.
func (s *CloneSource) CloneLast() (obvent.Obvent, error) {
	if s.mode != modeCopier {
		return s.Clone()
	}
	v := s.proto
	s.proto = reflect.Value{}
	if !v.IsValid() {
		var err error
		if v, err = s.decodeNew(); err != nil {
			return nil, err
		}
	}
	return s.box(v)
}

// decodeFlat decodes a flat class's compact payload straight to its box.
// Boxing copies the value, so the payload is decoded into a scratch value
// from the class's pool, which goes back zeroed (it pins no string of the
// event, and a failed decode leaves nothing behind): the box is the one
// allocation, the event's strings apart.
func (s *CloneSource) decodeFlat() (obvent.Obvent, error) {
	p := s.scratch.Get()
	if p == nil {
		p = reflect.New(s.typ).Interface()
	}
	v := reflect.ValueOf(p).Elem()
	s.cw.wireDecodes.Add(1)
	var o obvent.Obvent
	err := s.wp.Decode(s.payload, v)
	if err == nil {
		o, err = s.box(v)
	} else {
		err = fmt.Errorf("codec: decode %s: %w", s.name, err)
	}
	v.SetZero()
	s.scratch.Put(p)
	return o, err
}

// decodeNew materializes the payload into a fresh value of the class,
// honoring the payload encoding: the compiled wire program for compact
// payloads, gob otherwise.
func (s *CloneSource) decodeNew() (reflect.Value, error) {
	if s.enc == EncWire {
		if s.wp == nil {
			return reflect.Value{}, fmt.Errorf("codec: decode %s: compact payload for a class with no wire program", s.name)
		}
		if s.cw != nil {
			s.cw.wireDecodes.Add(1)
		}
		v := reflect.New(s.typ)
		if err := s.wp.Decode(s.payload, v.Elem()); err != nil {
			return reflect.Value{}, fmt.Errorf("codec: decode %s: %w", s.name, err)
		}
		return v.Elem(), nil
	}
	if s.cw != nil {
		s.cw.gobDecodes.Add(1)
	}
	v := reflect.New(s.typ)
	dec := gob.NewDecoder(bytes.NewReader(s.payload))
	if err := dec.DecodeValue(v); err != nil {
		return reflect.Value{}, fmt.Errorf("codec: decode %s: %w", s.name, err)
	}
	return v.Elem(), nil
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

// flatType reports (and caches) whether t can use the value-copy clone
// fastpath.
func (c *Codec) flatType(t reflect.Type) bool {
	if v, ok := c.flat.Load(t); ok {
		return v.(bool)
	}
	f := isFlat(t)
	c.flat.Store(t, f)
	return f
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

// NewID returns a fresh 128-bit random identifier.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure means the platform is broken; there is
		// no reasonable fallback for uniqueness.
		panic(fmt.Sprintf("codec: crypto/rand failed: %v", err))
	}
	var s [2 * len(b)]byte
	hex.Encode(s[:], b[:])
	return string(s[:])
}

// encodeValue gob-encodes a value via reflection so that concrete types
// need not be gob.Registered globally.
func encodeValue(o obvent.Obvent) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	v := reflect.ValueOf(o)
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if err := enc.EncodeValue(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
