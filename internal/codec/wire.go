package codec

// This file wires the compact per-class binary encoding (internal/wire)
// into the codec. The division of labor mirrors the compiled-copier
// cache: the wire package compiles one immutable codec program per
// class by walking its struct type; this file owns the per-codec cache
// of compile outcomes, the payload-encoding decision on Encode and the
// encoding-aware decode in CloneSource.
//
// The encoding is chosen by the encoder from the class alone, never per
// destination: a class the wire compiler rejects (custom marshalers,
// interface fields, non-flat map keys, recursive layouts) keeps the
// self-describing gob encoding, and every other class travels compact.
// Envelope.Enc tells the decoder which one it holds. Compilation is
// deterministic per layout, so every node of one build makes the same
// choice; rejection costs performance, never correctness.

import (
	"reflect"
	"sync"
	"sync/atomic"

	"govents/internal/obvent"
	"govents/internal/wire"
)

// Payload encodings carried in Envelope.Enc.
const (
	// EncGob marks a self-describing gob payload: how a class the wire
	// compiler rejects travels.
	EncGob uint8 = 0
	// EncWire marks a compact compiled-program payload (internal/wire).
	EncWire uint8 = 1
)

// codecWire is the codec's wire-encoding state (the Codec struct embeds
// it, like codecCopiers).
type codecWire struct {
	// wireProgs caches reflect.Type -> *wireEntry; a nil program marks a
	// rejected class, decided once per codec.
	wireProgs sync.Map

	wireCompiles atomic.Uint64
	wireRejects  atomic.Uint64
	wireEncodes  atomic.Uint64
	wireDecodes  atomic.Uint64
	gobEncodes   atomic.Uint64
	gobDecodes   atomic.Uint64
}

// wireEntry is one class's cached compilation outcome.
type wireEntry struct {
	prog *wire.Prog
	// size is the length of the class's latest compact encoding: the
	// next one starts with that much room, since a class's events are
	// mostly of a size, instead of growing from nothing.
	size atomic.Int64
	// scratch pools values a flat class's payloads are decoded into on
	// their way to a box (CloneSource.decodeFlat).
	scratch sync.Pool
}

// WireStats describes a codec's compact-encoding activity.
type WireStats struct {
	// Compiles / Rejects count per-class wire-program compilation
	// outcomes (each class is decided once).
	Compiles uint64
	Rejects  uint64
	// Encodes / Decodes count compact payload encodes and full compact
	// decodes (materializations). Partial decodes — plan evaluations
	// that never materialized the event — are counted by the matching
	// layer, which owns that decision.
	Encodes uint64
	Decodes uint64
	// GobEncodes / GobDecodes count gob payload traffic: the classes the
	// wire compiler rejects.
	GobEncodes uint64
	GobDecodes uint64
}

// WireStats returns the codec's wire-encoding counters.
func (c *Codec) WireStats() WireStats {
	return WireStats{
		Compiles:   c.wireCompiles.Load(),
		Rejects:    c.wireRejects.Load(),
		Encodes:    c.wireEncodes.Load(),
		Decodes:    c.wireDecodes.Load(),
		GobEncodes: c.gobEncodes.Load(),
		GobDecodes: c.gobDecodes.Load(),
	}
}

// wireEntryFor returns t's cached compilation outcome, compiling on
// first use; a nil program means the class is rejected and keeps gob.
// Entries are valid forever: a layout never changes.
func (c *Codec) wireEntryFor(t reflect.Type) *wireEntry {
	if v, ok := c.wireProgs.Load(t); ok {
		return v.(*wireEntry)
	}
	p, err := wire.Compile(t)
	if err != nil {
		p = nil
	}
	e := &wireEntry{prog: p}
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

// encodePayload serializes o with the compact encoding when its class
// compiles, falling back to gob otherwise.
func (c *Codec) encodePayload(o obvent.Obvent) ([]byte, uint8, error) {
	t := reflect.TypeOf(o)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if e := c.wireEntryFor(t); e.prog != nil {
		c.wireEncodes.Add(1)
		v := reflect.ValueOf(o)
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		buf := e.prog.Append(make([]byte, 0, e.size.Load()), v)
		e.size.Store(int64(len(buf)))
		return buf, EncWire, nil
	}
	b, err := encodeValue(o)
	if err == nil {
		c.gobEncodes.Add(1)
	}
	return b, EncGob, err
}

// Wire exposes the compact payload and its compiled program when the
// source is wire-encoded — the inputs to lazy partial evaluation
// (matching's wire match path). ok is false for gob payloads, whose
// only reading is a full decode.
func (s *CloneSource) Wire() (prog *wire.Prog, payload []byte, ok bool) {
	if s.enc != EncWire || s.wp == nil {
		return nil, nil, false
	}
	return s.wp, s.payload, true
}

// Type returns the resolved concrete class of the source's obvent.
func (s *CloneSource) Type() reflect.Type { return s.typ }
