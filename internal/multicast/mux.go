// Package multicast implements the dissemination-protocol suite of the
// DACE architecture (paper §4.2): every obvent class is mapped to a
// dissemination channel — a "multicast class" — and each channel can be
// implemented by a different multicast protocol, "with guarantees ranging
// from strong guarantees (exploiting ... group communication, e.g., for
// causal ordering) to primitives with weaker guarantees but strong focus
// on scalability (network-level protocols like IP multicast ... or
// gossip-based protocols)".
//
// The protocols provided are:
//
//   - BestEffort — unicast fanout, no guarantees (the IP-multicast stand-in)
//   - Reliable   — link-sequenced, cumulatively acknowledged sender-driven
//     reliable broadcast, released in link order: the one sequencing
//     mechanism of the package
//   - FIFO       — per-publisher order: the Reliable link under its own name
//   - Causal     — vector-clock causal order on top of Reliable
//   - Total      — fixed-sequencer total order: one Reliable link to the
//     sequencer, its atomic broadcasts back
//   - Certified  — durable delivery backed by a store.Log, surviving
//     subscriber disconnection
//   - Gossip     — probabilistic broadcast in the style of lpbcast
//
// All protocols run over a Mux, which multiplexes named streams onto a
// single point-to-point netsim.Transport endpoint.
package multicast

import (
	"encoding/binary"
	"fmt"
	"sync"

	"govents/internal/netsim"
)

// Deliver is the upcall invoked for every message delivered by a group,
// carrying the address of the original publisher and the payload.
// Deliver runs on the transport's delivery goroutine (or the caller's
// goroutine for local self-delivery) and must not block indefinitely.
type Deliver func(origin string, payload []byte)

// Group is a dissemination channel: the runtime realization of one of
// the paper's multicast classes.
type Group interface {
	// Broadcast disseminates payload to all members of the group,
	// including the local node.
	Broadcast(payload []byte) error
	// SetMembers replaces the full membership (addresses, including
	// the local node).
	SetMembers(members []string)
	// Close stops the group's background work. The group must not be
	// used afterwards.
	Close() error
}

// Mux multiplexes named streams over one Transport endpoint so that many
// groups (one per obvent class, per paper §4.2) share a node's single
// address. Handlers are registered per stream; frames for unknown
// streams are dropped.
type Mux struct {
	tr netsim.Transport

	mu       sync.RWMutex
	handlers map[string]netsim.Handler
	fallback func(stream, from string, payload []byte)
}

// NewMux wraps a transport endpoint. It installs itself as the
// transport's handler.
func NewMux(tr netsim.Transport) *Mux {
	m := &Mux{tr: tr, handlers: make(map[string]netsim.Handler)}
	tr.SetHandler(m.dispatch)
	return m
}

// Addr returns the underlying endpoint address.
func (m *Mux) Addr() string { return m.tr.Addr() }

// Handle registers the handler for a stream, replacing any previous one.
func (m *Mux) Handle(stream string, h netsim.Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[stream] = h
}

// Unhandle removes the stream's handler.
func (m *Mux) Unhandle(stream string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, stream)
}

// SetFallback installs a handler for frames on streams with no
// registered handler. It enables lazy group creation: the fallback may
// register a handler for the stream and re-dispatch the frame with
// Redeliver. Without a fallback, unknown-stream frames are dropped.
func (m *Mux) SetFallback(f func(stream, from string, payload []byte)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fallback = f
}

// Redeliver routes a frame to the now-registered handler of a stream
// (used by fallbacks after creating the handling group). The frame is
// dropped if the stream is still unhandled.
func (m *Mux) Redeliver(stream, from string, payload []byte) {
	m.mu.RLock()
	h := m.handlers[stream]
	m.mu.RUnlock()
	if h != nil {
		h(from, payload)
	}
}

// Send transmits payload on the named stream to the destination address.
func (m *Mux) Send(to, stream string, payload []byte) error {
	buf, err := newFrame(stream, len(payload))
	if err != nil {
		return err
	}
	return m.tr.Send(to, append(buf, payload...))
}

// sendMessage transmits one protocol record on the named stream.
func (m *Mux) sendMessage(to, stream string, msg *message) error {
	frame, err := frameMessage(stream, msg)
	if err != nil {
		return err
	}
	return m.tr.Send(to, frame)
}

// sendFrame transmits a frame frameMessage built: a sender fanning one
// record out builds it once.
func (m *Mux) sendFrame(to string, frame []byte) error { return m.tr.Send(to, frame) }

// frameMessage builds the transport frame [stream][record] of msg in a
// single exactly-sized buffer.
func frameMessage(stream string, msg *message) ([]byte, error) {
	size, err := messageSize(msg)
	if err != nil {
		return nil, err
	}
	buf, err := newFrame(stream, size)
	if err != nil {
		return nil, err
	}
	return appendMessage(buf, msg), nil
}

// newFrame starts a transport frame: the stream prefix, with room for a
// body of the given size behind it.
func newFrame(stream string, body int) ([]byte, error) {
	if len(stream) > 0xFFFF {
		return nil, fmt.Errorf("multicast: stream name too long (%d bytes)", len(stream))
	}
	buf := make([]byte, 0, 2+len(stream)+body)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(stream)))
	return append(buf, stream...), nil
}

// dispatch routes an inbound transport frame to its stream handler.
func (m *Mux) dispatch(from string, data []byte) {
	if len(data) < 2 {
		return
	}
	n := int(binary.BigEndian.Uint16(data[:2]))
	if 2+n > len(data) {
		return
	}
	m.mu.RLock()
	h := m.handlers[string(data[2:2+n])] // no allocation: the conversion only keys the lookup
	fb := m.fallback
	m.mu.RUnlock()
	switch {
	case h != nil:
		h(from, data[2+n:])
	case fb != nil:
		fb(string(data[2:2+n]), from, data[2+n:])
	}
}
