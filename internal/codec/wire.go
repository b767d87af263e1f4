package codec

// This file wires the compact per-class binary encoding (internal/wire)
// into the codec: the wire package compiles one immutable codec program
// per class by walking its struct type; this file owns the per-codec
// cache of compile outcomes, the payload encode on Encode and what
// CloneSource needs to decode. The compiled encoding is the only payload
// encoding: a class the compiler refuses (a layout gob refuses too) has
// no encoding, and Encode returns the compiler's error.

import (
	"reflect"
	"sync"
	"sync/atomic"

	"govents/internal/obvent"
	"govents/internal/wire"
)

// codecWire is the codec's wire-encoding state (the Codec struct embeds
// it).
type codecWire struct {
	// wireProgs caches reflect.Type -> *wireEntry, decided once per
	// codec.
	wireProgs sync.Map

	wireCompiles atomic.Uint64
	wireRejects  atomic.Uint64
	wireEncodes  atomic.Uint64
	wireDecodes  atomic.Uint64
}

// wireEntry is one class's cached compilation outcome.
type wireEntry struct {
	// prog is nil for a class the compiler refused, err says why.
	prog *wire.Prog
	err  error
	// flat reports that a value copy of the class is a deep copy, so
	// one decode of a payload serves every clone of it (CloneSource).
	flat bool
	// exact reports that decoding an encoding of the class gives back
	// the value encoded (wire.Exact), so an envelope of a value published
	// as it is can carry that value (Envelope.Value).
	exact bool
	// size and prevSize are the longest encodings of the class in the
	// current and the previous window of sizeWindow encodes (counted by
	// encodes). The next buffer has room for the longer: an event a
	// varint byte longer than the one before it does not regrow it, and
	// an outsized event stops costing room two windows later.
	size, prevSize atomic.Int64
	encodes        atomic.Uint64
	// scratch pools the values payloads are decoded into (*T for class
	// T), each held by one CloneSource from its first decode to Reset.
	scratch sync.Pool
}

// WireStats describes a codec's compact-encoding activity.
type WireStats struct {
	// Compiles / Rejects count per-class wire-program compilation
	// outcomes (each class is decided once; a rejected class cannot be
	// encoded).
	Compiles uint64
	Rejects  uint64
	// Encodes / Decodes count payload encodes and full decodes
	// (materializations). Partial decodes — plan evaluations that never
	// materialized the event — are counted by the matching layer, which
	// owns that decision.
	Encodes uint64
	Decodes uint64
}

// WireStats returns the codec's wire-encoding counters.
func (c *Codec) WireStats() WireStats {
	return WireStats{
		Compiles: c.wireCompiles.Load(),
		Rejects:  c.wireRejects.Load(),
		Encodes:  c.wireEncodes.Load(),
		Decodes:  c.wireDecodes.Load(),
	}
}

// wireEntryFor returns t's cached compilation outcome, compiling on
// first use. Entries are valid forever: a layout never changes.
func (c *Codec) wireEntryFor(t reflect.Type) *wireEntry {
	if v, ok := c.wireProgs.Load(t); ok {
		return v.(*wireEntry)
	}
	p, err := wire.Compile(t, c.reg)
	e := &wireEntry{prog: p, err: err, flat: isFlat(t), exact: wire.Exact(t)}
	if v, loaded := c.wireProgs.LoadOrStore(t, e); loaded {
		return v.(*wireEntry)
	}
	if p != nil {
		c.wireCompiles.Add(1)
	} else {
		c.wireRejects.Add(1)
	}
	return e
}

// Compile compiles the program of o's class ahead of its first use, and
// reports why the class cannot travel if it cannot.
func (c *Codec) Compile(o obvent.Obvent) error {
	t := reflect.TypeOf(o)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return c.wireEntryFor(t).err
}

// encodePayload serializes o with its class's compiled program, behind
// off bytes of room: the payload is buf[off:]. It writes into dst's
// storage when that holds what the class's recent encodings took.
// exact reports that o is a value of an exact class, not a pointer to
// one: decoding the payload gives back o itself.
func (c *Codec) encodePayload(dst []byte, o obvent.Obvent, off int) (buf []byte, exact bool, err error) {
	v := reflect.ValueOf(o)
	byValue := v.Kind() != reflect.Pointer
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	e := c.wireEntryFor(v.Type())
	if e.prog == nil {
		return nil, false, e.err
	}
	buf = dst[:0]
	if size := off + int(max(e.size.Load(), e.prevSize.Load())); cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	if buf, err = e.prog.Append(buf[:off], v); err != nil {
		return nil, false, err
	}
	c.wireEncodes.Add(1)
	e.noteSize(int64(len(buf) - off))
	return buf, byValue && e.exact, nil
}

const sizeWindow = 256

// noteSize records one encoding's length. Concurrent encodes may lose
// an update; the cost is one buffer regrown, never a wrong payload.
func (e *wireEntry) noteSize(n int64) {
	if e.encodes.Add(1)%sizeWindow == 0 {
		e.prevSize.Store(e.size.Load())
		e.size.Store(n)
	} else if n > e.size.Load() {
		e.size.Store(n)
	}
}

// Wire exposes the payload and its compiled program — the inputs to lazy
// partial evaluation (matching's wire match path). ok is false only for
// a source no envelope resolved into.
func (s *CloneSource) Wire() (prog *wire.Prog, payload []byte, ok bool) {
	if s.we == nil {
		return nil, nil, false
	}
	return s.we.prog, s.payload, true
}

// Type returns the resolved concrete class of the source's obvent.
func (s *CloneSource) Type() reflect.Type { return s.typ }
