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
// to several destinations unchanged is framed once. A frame names its
// stream by a 4-byte key once the destination has confirmed that it
// knows the name, and spells the name out until then. A publication
// with a frame to send that no transport would carry (netsim.MaxFrame)
// is refused before it is stamped or persisted; one delivered only at
// this node has no frame, and no such bound.
package multicast

import (
	"encoding/binary"
	"fmt"
	"slices"
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
//
// A frame addresses its stream in one of two forms. Spelled, it carries
// the name and the name's key; short, only the key (streamKey, a hash of
// the name). A sender spells a stream to a destination until that
// destination confirms, with a known frame, that it resolves the key to
// the name; from then on it sends the short form. A receiver confirms a
// spelled frame that reached a handler, unless another stream it handles
// has the same key; it answers a short frame whose key names no one
// stream it handles with an unknown frame and drops it, and the sender
// spells that stream to it again. So a receiver that has not created
// the stream's group yet (after a restart, say) is spelled to again
// after one dropped frame, which the reliable classes resend.
type Mux struct {
	tr netsim.Transport

	mu       sync.RWMutex
	handlers map[string]netsim.Handler
	keys     map[uint32][]route // the handled streams, by key
	fallback func(stream, from string, payload []byte)
	// known is, per destination and key, the stream name the destination
	// confirmed it resolves the key to: one small entry per destination
	// and stream ever confirmed, kept after the destination leaves.
	known map[peerKey]string
}

// A route is a handled stream as its key finds it.
type route struct {
	name string
	h    netsim.Handler
}

type peerKey struct {
	addr string
	key  uint32
}

// NewMux wraps a transport endpoint. It installs itself as the
// transport's handler.
func NewMux(tr netsim.Transport) *Mux {
	m := &Mux{
		tr:       tr,
		handlers: make(map[string]netsim.Handler),
		keys:     make(map[uint32][]route),
		known:    make(map[peerKey]string),
	}
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
	m.setRoute(stream, h)
}

// Unhandle removes the stream's handler.
func (m *Mux) Unhandle(stream string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, stream)
	m.setRoute(stream, nil)
}

// setRoute replaces stream's route under its key with h, or removes it
// when h is nil. Caller holds mu.
func (m *Mux) setRoute(stream string, h netsim.Handler) {
	key := streamKey(stream)
	rs := slices.DeleteFunc(m.keys[key], func(r route) bool { return r.name == stream })
	if h != nil {
		rs = append(rs, route{stream, h})
	}
	if len(rs) == 0 {
		delete(m.keys, key)
	} else {
		m.keys[key] = rs
	}
}

// SetFallback installs a handler for spelled frames on streams with no
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

// A stream is a stream name and its key, computed once per group.
type stream struct {
	name string
	key  uint32
}

func newStream(name string) stream { return stream{name, streamKey(name)} }

func (s stream) String() string { return s.name }

// streamKey is a stream name's key: its 32-bit FNV-1a hash. A hash of
// the name, not a number the sender picks, so that a key a receiver
// learnt cannot come to mean another stream when the sender restarts.
func streamKey[T string | []byte](name T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

// The frame forms, by their first byte. A spelled frame is the name in
// front of the short frame, so one buffer holds both forms of a frame.
//
//	short    0, key (4 bytes, big-endian), body
//	spelled  1, name length (2 bytes, big-endian), name, then the short frame
//	known    2, key: the sender resolves the key to the name it was spelled
//	unknown  3, key: the sender resolves the key to no one stream
const (
	frameShort byte = iota
	frameSpelled
	frameKnown
	frameUnknown

	shortHeader   = 1 + 4
	spelledHeader = 1 + 2 + shortHeader // and the name
)

// sendMessage transmits one protocol record on stream s.
func (m *Mux) sendMessage(to string, s stream, msg *message) error {
	f, err := messageFrame(s, msg)
	if err != nil {
		return err
	}
	defer f.release()
	return m.send(to, s, f)
}

// fanOut transmits one protocol record on stream s to every address in
// dests but self. The frame is built once and handed to each Send in
// turn, spelled or short as each destination needs: one copy of the
// record whatever the fan-out. It fails only when the frame cannot be
// built, before anything is sent, and not at all when dests names
// nobody but self; a failed Send is the caller's protocol's to recover,
// or not.
func (m *Mux) fanOut(dests []string, self string, s stream, msg *message) error {
	if !remote(dests, self) {
		return nil
	}
	f, err := messageFrame(s, msg)
	if err != nil {
		return err
	}
	defer f.release()
	for _, addr := range dests {
		if addr != self {
			_ = m.send(addr, s, f)
		}
	}
	return nil
}

// send hands f to the transport, short when to has confirmed s's key.
func (m *Mux) send(to string, s stream, f *frame) error {
	m.mu.RLock()
	name, ok := m.known[peerKey{to, s.key}]
	m.mu.RUnlock()
	if ok && name == s.name {
		return m.tr.Send(to, f.b[f.short:])
	}
	return m.tr.Send(to, f.b)
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

// A frame is one transport frame, spelled, built in a pooled buffer for
// one Send; from short on it is the short form. Transport.Send
// keeps nothing it is given, so the buffer goes back to the pool
// (release) as soon as Send returns, and a frame costs no allocation
// once the pool holds a buffer of its size.
type frame struct {
	b     []byte
	short int // where the short form starts
}

// framePool recycles frames; a buffer above maxPooledFrame is left to
// the collector on release rather than kept for the next small frame.
var framePool = sync.Pool{New: func() any { return new(frame) }}

const maxPooledFrame = 64 << 10

// newFrame starts a spelled frame on s, with room for a body of the
// given size behind its header. The caller appends the body.
func newFrame(s stream, body int) (*frame, error) {
	size, err := frameLen(s.name, body)
	if err != nil {
		return nil, err
	}
	f := framePool.Get().(*frame)
	if cap(f.b) < size {
		f.b = make([]byte, 0, size)
	}
	f.b = append(f.b[:0], frameSpelled)
	f.b = binary.BigEndian.AppendUint16(f.b, uint16(len(s.name)))
	f.b = append(f.b, s.name...)
	f.b = append(f.b, frameShort)
	f.b = binary.BigEndian.AppendUint32(f.b, s.key)
	f.short = len(f.b) - shortHeader
	return f, nil
}

// messageFrame builds msg's frame on s.
func messageFrame(s stream, msg *message) (*frame, error) {
	size, err := messageSize(msg)
	if err != nil {
		return nil, err
	}
	f, err := newFrame(s, size)
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

// frameLen returns the length of a spelled frame on stream with a body
// of the given size, or an error when no transport would carry it. The
// spelled form is the longer, so a frame that fits here fits in both.
func frameLen(stream string, body int) (int, error) {
	if len(stream) > 0xFFFF {
		return 0, fmt.Errorf("multicast: stream name too long (%d bytes)", len(stream))
	}
	n := spelledHeader + len(stream) + body
	if n > netsim.MaxFrame {
		return 0, fmt.Errorf("multicast: %s: %w (%d bytes)", stream, netsim.ErrFrameTooLarge, n)
	}
	return n, nil
}

// fits checks, before a protocol stamps or persists a publication, that
// msg's frame on s is one a transport carries, spelled. The caller sets
// the fields it does not know yet to their widest: a frame refused here
// is refused every time, so no retransmission could deliver it.
func fits(s stream, msg *message) error {
	size, err := messageSize(msg)
	if err == nil {
		_, err = frameLen(s.name, size)
	}
	return err
}

// dispatch routes an inbound transport frame to its stream handler, and
// answers and books the handshake.
func (m *Mux) dispatch(from string, data []byte) {
	if len(data) < shortHeader {
		return
	}
	key := binary.BigEndian.Uint32(data[1:shortHeader]) // a spelled frame's comes after its name
	switch data[0] {
	case frameShort:
		m.mu.RLock()
		var h netsim.Handler
		if rs := m.keys[key]; len(rs) == 1 {
			h = rs[0].h
		}
		m.mu.RUnlock()
		if h == nil {
			m.control(from, frameUnknown, key)
			return
		}
		h(from, data[shortHeader:])
	case frameSpelled:
		n := int(binary.BigEndian.Uint16(data[1:3]))
		if len(data) < spelledHeader+n || data[3+n] != frameShort {
			return
		}
		name, short := data[3:3+n], data[3+n:]
		if key = binary.BigEndian.Uint32(short[1:shortHeader]); key != streamKey(name) {
			return
		}
		m.mu.RLock()
		h := m.handlers[string(name)] // no allocation: the conversion only keys the lookup
		sole := len(m.keys[key]) == 1
		fb := m.fallback
		m.mu.RUnlock()
		switch {
		case h != nil:
			if sole {
				m.control(from, frameKnown, key)
			}
			h(from, short[shortHeader:])
		case fb != nil:
			stream := string(name)
			fb(stream, from, short[shortHeader:])
			m.mu.RLock()
			sole = m.handlers[stream] != nil && len(m.keys[key]) == 1
			m.mu.RUnlock()
			if sole {
				m.control(from, frameKnown, key)
			}
		}
	case frameKnown:
		if len(data) != shortHeader {
			return
		}
		// The destination resolves the key to the name this node spelled,
		// which is the one name it handles under the key: with two, it
		// cannot tell which was confirmed, and keeps spelling both.
		m.mu.Lock()
		if rs := m.keys[key]; len(rs) == 1 {
			m.known[peerKey{from, key}] = rs[0].name
		}
		m.mu.Unlock()
	case frameUnknown:
		if len(data) != shortHeader {
			return
		}
		m.mu.Lock()
		delete(m.known, peerKey{from, key})
		m.mu.Unlock()
	}
}

// control sends a handshake frame about key to addr. A lost one costs a
// spelled frame more, or a short frame dropped, and the next frame
// on the stream draws another.
func (m *Mux) control(addr string, kind byte, key uint32) {
	f := framePool.Get().(*frame)
	f.b = binary.BigEndian.AppendUint32(append(f.b[:0], kind), key)
	_ = m.tr.Send(addr, f.b)
	f.release()
}
