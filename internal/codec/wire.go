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
	// every clone of one payload can be the same box (CloneSource).
	flat bool
	// size is the length of the class's latest encoding: the next one
	// starts with that much room, since a class's events are mostly of a
	// size, instead of growing from nothing.
	size atomic.Int64
	// scratch pools values payloads are decoded into on their way to a
	// box (CloneSource.decode).
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
	e := &wireEntry{prog: p, err: err, flat: isFlat(t)}
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

// encodePayload serializes o with its class's compiled program.
func (c *Codec) encodePayload(o obvent.Obvent) ([]byte, error) {
	v := reflect.ValueOf(o)
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	e := c.wireEntryFor(v.Type())
	if e.prog == nil {
		return nil, e.err
	}
	buf, err := e.prog.Append(make([]byte, 0, e.size.Load()), v)
	if err != nil {
		return nil, err
	}
	c.wireEncodes.Add(1)
	e.size.Store(int64(len(buf)))
	return buf, nil
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
