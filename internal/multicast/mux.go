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
//   - Certified  — durable delivery backed by a durable.Outbox, surviving
//     subscriber disconnection
//
// All protocols run over a Mux, which multiplexes named streams onto a
// single point-to-point netsim.Transport endpoint and builds every frame
// in a reused buffer, which Transport.Send does not keep; a record sent
// to several destinations unchanged is framed once. A publication with a
// frame to send that no transport would carry (netsim.MaxFrame) is
// refused before it is stamped or persisted; one delivered only at this
// node has no frame, and no such bound.
package multicast

import (
	"encoding/binary"
	"fmt"
	"sync"

	"govents/internal/netsim"
)

// Deliver is the upcall invoked for every message delivered by a group,
// carrying the address of the original publisher and the payload, one
// call at a time per group and in release order. It runs on a goroutine
// that released one (the transport's delivery goroutine, or the caller's
// for local self-delivery) and must not block indefinitely.
type Deliver func(origin string, payload []byte)

// Group is a dissemination channel: the runtime realization of one of
// the paper's multicast classes.
//
// A link copies what it keeps: the caller may reuse a payload once the
// call that was given it returns, except where the group keeps the
// caller's bytes themselves. A delivery to the local node holds them
// until the upcall has run, and a certified group's outbox keeps them.
// So what may be reused is a payload addressed to other nodes only,
// through BroadcastTo or BroadcastSplit, on a reliable, ordered or
// best-effort group.
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

// sendMessage transmits one protocol record on the named stream.
func (m *Mux) sendMessage(to, stream string, msg *message) error {
	f, err := messageFrame(stream, msg)
	if err != nil {
		return err
	}
	defer f.release()
	return m.tr.Send(to, f.b)
}

// fanOut transmits one protocol record on the named stream to every
// address in dests but self. The frame is built once and handed to each
// Send in turn: one copy of the record whatever the fan-out. It fails
// only when the frame cannot be built, before anything is sent, and not
// at all when dests names nobody but self; a failed Send is the
// caller's protocol's to recover, or not.
func (m *Mux) fanOut(dests []string, self, stream string, msg *message) error {
	if !remote(dests, self) {
		return nil
	}
	f, err := messageFrame(stream, msg)
	if err != nil {
		return err
	}
	defer f.release()
	for _, addr := range dests {
		if addr != self {
			_ = m.tr.Send(addr, f.b)
		}
	}
	return nil
}

// remote reports whether dests names an address other than self: only
// then does a publication have a frame to send, and a bound to fit.
func remote(dests []string, self string) bool {
	for _, addr := range dests {
		if addr != self {
			return true
		}
	}
	return false
}

// A frame is one transport frame, [stream][body], built in a pooled
// buffer for one Send. Transport.Send keeps nothing it is given, so the
// buffer goes back to the pool (release) as soon as Send returns, and a
// frame costs no allocation once the pool holds a buffer of its size.
type frame struct{ b []byte }

// framePool recycles frames; a buffer above maxPooledFrame is left to
// the collector on release rather than kept for the next small frame.
var framePool = sync.Pool{New: func() any { return new(frame) }}

const maxPooledFrame = 64 << 10

// newFrame starts a frame: the stream prefix, with room for a body of
// the given size behind it.
func newFrame(stream string, body int) (*frame, error) {
	size, err := frameLen(stream, body)
	if err != nil {
		return nil, err
	}
	f := framePool.Get().(*frame)
	if cap(f.b) < size {
		f.b = make([]byte, 0, size)
	}
	f.b = binary.BigEndian.AppendUint16(f.b[:0], uint16(len(stream)))
	f.b = append(f.b, stream...)
	return f, nil
}

// messageFrame builds msg's frame on stream.
func messageFrame(stream string, msg *message) (*frame, error) {
	size, err := messageSize(msg)
	if err != nil {
		return nil, err
	}
	f, err := newFrame(stream, size)
	if err != nil {
		return nil, err
	}
	f.b = appendMessage(f.b, msg)
	return f, nil
}

// release returns the frame to the pool once its Send has returned.
func (f *frame) release() {
	if cap(f.b) > maxPooledFrame {
		f.b = nil
	}
	framePool.Put(f)
}

// frameLen returns the length of a frame on stream with a body of the
// given size, or an error when no transport would carry it.
func frameLen(stream string, body int) (int, error) {
	if len(stream) > 0xFFFF {
		return 0, fmt.Errorf("multicast: stream name too long (%d bytes)", len(stream))
	}
	n := 2 + len(stream) + body
	if n > netsim.MaxFrame {
		return 0, fmt.Errorf("multicast: %s: %w (%d bytes)", stream, netsim.ErrFrameTooLarge, n)
	}
	return n, nil
}

// fits checks, before a protocol stamps or persists a publication, that
// msg's frame on stream is one a transport carries. The caller sets the
// fields it does not know yet to their widest: a frame refused here is
// refused every time, so no retransmission could deliver it.
func fits(stream string, msg *message) error {
	size, err := messageSize(msg)
	if err == nil {
		_, err = frameLen(stream, size)
	}
	return err
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
