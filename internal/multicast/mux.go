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
//   - Certified  — the Reliable link over stable storage: its log is a
//     durable.Outbox, and what it receives is staged first; durable
//     delivery that survives subscriber disconnection
//
// All protocols run over a Mux, which multiplexes named streams onto a
// single point-to-point netsim.Transport endpoint and builds every frame
// in a reused buffer, which Transport.Send does not keep; a record sent
// to several destinations unchanged is framed once. A frame names its
// stream by a 4-byte key, and its sender's incarnation by a number the
// destination gave it, once the destination has confirmed both, and
// spells the name and the epoch out until then. A publication
// with a frame to send that no transport would carry (netsim.MaxFrame)
// is refused before it is stamped or persisted; one delivered only at
// this node has no frame, and no such bound.
package multicast

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"govents/internal/netsim"
	"govents/internal/rec"
)

// Deliver is the upcall invoked for every message delivered by a group,
// carrying the address of the original publisher and the payload, one
// call at a time per group and in release order. It runs on a goroutine
// that released one (the transport's delivery goroutine, or the caller's
// for local self-delivery) and must not block indefinitely. The payload
// is valid for the call only: Deliver copies what it keeps.
type Deliver = func(origin string, payload []byte)

// DeliverFrom is a Deliver that is also told the epoch of origin's group
// as the link names it (the incarnation NextName gave the publication at
// origin): the epoch the frame's binding carries, this group's own for a
// delivery at this node, and 0 where no link names it, on a stream
// without epochs (BestEffort) or for a frame relayed on origin's behalf
// (Total).
type DeliverFrom = func(origin string, epoch uint64, payload []byte)

// An Upcall is what a group delivers to, either form: a constructor
// takes one or the other.
type Upcall interface{ Deliver | DeliverFrom }

// upcallOf returns u as a DeliverFrom.
func upcallOf[U Upcall](u U) DeliverFrom {
	switch f := any(u).(type) {
	case DeliverFrom:
		return f
	case Deliver:
		return func(origin string, _ uint64, payload []byte) { f(origin, payload) }
	}
	panic("unreachable")
}

// Group is a dissemination channel: the runtime realization of one of
// the paper's multicast classes.
//
// A group copies what it keeps of a payload, to send, to resend, to
// deliver later or to persist: the caller may reuse a payload once the
// call that was given it returns. A frame received is likewise valid
// for the transport handler's call only, and a group copies what it
// holds of it past that call.
type Group interface {
	// Broadcast disseminates payload to all members of the group,
	// including the local node.
	Broadcast(payload []byte) error
	// SetMembers replaces the full membership (addresses, including
	// the local node).
	SetMembers(members []string)
	// NextName names this node's next publication on the group: the
	// group's incarnation and a count of the names it gave, from 1, from
	// an atomic counter. On a numbered link the incarnation is the epoch
	// the link's binding names (what DeliverFrom is told at a receiver);
	// a certified group's is unique across origins as well.
	NextName() (inc, n uint64)
	// Close stops the group's background work. The group must not be
	// used afterwards.
	Close() error
}

// Mux multiplexes named streams over one Transport endpoint so that many
// groups (one per obvent class, per paper §4.2) share a node's single
// address. A group opens its stream (newStream, open); frames for
// streams no group has open are dropped.
//
// A frame addresses its stream in one of two forms. Spelled, it carries
// the name; short, only the name's key (streamKey, a hash of the name).
// A sender spells a stream to a destination until that destination
// confirms, with a known frame, that it resolves the key; from then on it
// sends the short form. A receiver answers a short frame it cannot
// resolve with an unknown frame and drops it, and the sender spells that
// stream to it again. So a receiver that has not created the stream's
// group yet (after a restart, say) is spelled to again after one dropped
// frame, which the reliable classes resend.
//
// A group with an incarnation (an epoch: Reliable, everything built on
// it, and Certified) gives it to newStream, and its frames are numbered. The
// spelled form carries the epoch too, and the receiver answers it with a
// number of its own for that (origin, stream, epoch): 1, 2, 3, … per
// origin and key, never given twice in the receiver's lifetime. The
// short form carries the key and that number, and the receiver resolves
// the pair to the epoch and hands the group both. A short frame whose
// pair is not the origin's current one (a straggler of a dead
// incarnation, or any frame after the receiver restarted) draws unknown
// and is dropped: a number is never reused, so a dead incarnation's
// frame cannot pass for the live one's. An acknowledgement names the
// incarnation it acknowledges by that number (acked). A stream without
// an epoch (BestEffort) is resolved by its key alone, and only where one
// stream it handles has that key; a key two of them share is never
// confirmed, and both stay spelled.
type Mux struct {
	tr netsim.Transport

	mu       sync.RWMutex
	streams  map[string]*stream   // the open streams, by name
	keys     map[uint32][]*stream // likewise, by key
	heard    map[peerKey]*heard   // per origin and key, the incarnations numbered
	fallback func(stream string)
}

type peerKey struct {
	addr string
	key  uint32
}

// A stream is one group's stream at this node: its name, the name's key
// and the group's epoch (0 for a group without one), its handler, and
// what each destination has confirmed. newStream makes it, open hands it
// its handler, and close ends it.
type stream struct {
	name  string
	key   uint32
	epoch uint64
	// h is the group's upcall; nil once the stream is closed. known maps
	// each destination that confirmed the stream to the number it gave
	// the epoch (0 on a stream without one), and parked each destination
	// to a copy of the latest acknowledgement from it that named another
	// (acked). All three are guarded by the mux's mu.
	h      handler
	known  map[string]uint64
	parked map[string][]byte
}

func (s *stream) String() string { return s.name }

// handler is a group's upcall for its stream's frames: the sender, the
// sender's incarnation as the mux resolved it (zero on a stream without
// one), and the record.
type handler func(from string, in incarnation, record []byte)

// An incarnation is a sender's group as its receiver knows it: the epoch
// the sender spelled and the number the receiver gave it.
type incarnation struct {
	epoch, num uint64
}

// heard is what a receiver numbered for one origin under one key: the
// current incarnation of each stream under the key (one, bar a key two
// names share), and the last number given, never to be given again.
type heard struct {
	last  uint64
	bound []binding
}

// A binding is a stream's current incarnation at one origin. s is the
// stream that took its last spelled frame: once it is closed, the short
// form resolves to nothing until the origin spells again.
type binding struct {
	s *stream
	incarnation
}

// NewMux wraps a transport endpoint. It installs itself as the
// transport's handler.
func NewMux(tr netsim.Transport) *Mux {
	m := &Mux{
		tr:      tr,
		streams: make(map[string]*stream),
		keys:    make(map[uint32][]*stream),
		heard:   make(map[peerKey]*heard),
	}
	tr.SetHandler(m.dispatch)
	return m
}

// Addr returns the underlying endpoint address.
func (m *Mux) Addr() string { return m.tr.Addr() }

// open opens s, whose group's upcall is h, replacing the stream of any
// group that had its name open. The group has its stream before its
// first frame can reach h.
func (m *Mux) open(s *stream, h handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.streams[s.name]; old != nil {
		m.closeLocked(old)
	}
	s.h = h
	m.streams[s.name] = s
	m.keys[s.key] = append(m.keys[s.key], s)
}

// close ends a stream open opened, unless another group's has replaced
// it.
func (m *Mux) close(s *stream) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.streams[s.name] == s {
		m.closeLocked(s)
	}
}

// closeLocked ends s. Caller holds mu.
func (m *Mux) closeLocked(s *stream) {
	s.h = nil
	delete(m.streams, s.name)
	rs := slices.DeleteFunc(m.keys[s.key], func(r *stream) bool { return r == s })
	if len(rs) == 0 {
		delete(m.keys, s.key)
	} else {
		m.keys[s.key] = rs
	}
}

// SetFallback installs what runs for a spelled frame on a stream no
// group has open, with the stream's name. It enables lazy group
// creation: the fallback may open the stream, and the mux then hands the
// frame to it. Without a fallback, such frames are dropped.
func (m *Mux) SetFallback(f func(stream string)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fallback = f
}

// acked reports whether num, an acknowledgement's, is the number the
// destination to gave s's epoch. An acknowledgement can overtake the
// known frame that gives its number (a reordering transport), so the
// latest one naming another is copied (record aliases the frame) and
// handed to the group again when a known frame from to confirms one.
func (m *Mux) acked(s *stream, to string, num uint64, record []byte) bool {
	if num == 0 {
		return false
	}
	m.mu.RLock()
	ok := s.known[to] == num
	m.mu.RUnlock()
	if ok {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.known[to] == num { // confirmed meanwhile
		return true
	}
	s.parked[to] = append(s.parked[to][:0], record...)
	return false
}

// newStream returns the stream name of a group whose incarnation is
// epoch (0 for none), for open.
func newStream(name string, epoch uint64) *stream {
	return &stream{name: name, key: streamKey(name), epoch: epoch, known: make(map[string]uint64), parked: make(map[string][]byte)}
}

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

// The frame forms, by their first byte: bit 1 spells the stream, bit 4
// numbers it. A data frame's prefix is written in front of the record
// for each destination, so one buffer holds every form of a frame.
//
//	short     0, key (4 bytes, big-endian), record
//	spelled   1, name length (2 bytes, big-endian), name, record
//	known     2, key; on a numbered stream, then the epoch and the number
//	          given it (uvarints): the sender resolves the key, and the
//	          epoch to the number
//	unknown   3, key; on a numbered stream, then the number (a uvarint):
//	          the sender resolves the key, or the key and the number, to
//	          nothing
//	numbered  4, key, number (a uvarint), record
//	incarnate 5, name length, name, epoch (a uvarint), record
const (
	frameShort byte = iota
	frameSpelled
	frameKnown
	frameUnknown
	frameNumbered
	frameIncarnate

	shortHeader   = 1 + 4
	spelledHeader = 1 + 2 // and the name
	// maxUvarint is the longest uvarint: the room a frame keeps for a
	// number or an epoch.
	maxUvarint = binary.MaxVarintLen64
)

// sendMessage transmits one protocol record on stream s.
func (m *Mux) sendMessage(to string, s *stream, msg *message) error {
	f, err := messageFrame(s, msg)
	if err != nil {
		return err
	}
	defer f.release()
	return m.send(to, s, f)
}

// fanOut transmits one protocol record on stream s to every address in
// dests but self. The record is framed once and handed to each Send in
// turn behind the prefix each destination needs: one copy of the record
// whatever the fan-out. It fails only when the frame cannot be built,
// before anything is sent, and not at all when dests names nobody but
// self; a failed Send is the caller's protocol's to recover, or not.
func (m *Mux) fanOut(dests []string, self string, s *stream, msg *message) error {
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

// send hands f to the transport, short when to has confirmed s.
func (m *Mux) send(to string, s *stream, f *frame) error {
	m.mu.RLock()
	num, ok := s.known[to]
	m.mu.RUnlock()
	return m.tr.Send(to, f.prefixed(s, ok, num))
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

// A frame is one record framed for Sends, built in a pooled buffer: the
// record from rec on, behind room for the longest prefix, which each
// Send writes in front of it (prefixed). Transport.Send keeps nothing it
// is given, so the buffer goes back to the pool (release) as soon as the
// last Send returns, and a frame costs no allocation once the pool holds
// a buffer of its size.
type frame struct {
	b   []byte
	rec int // where the record starts
}

// framePool recycles frames; a buffer above maxPooledFrame is left to
// the collector on release rather than kept for the next small frame.
var framePool = sync.Pool{New: func() any { return new(frame) }}

const maxPooledFrame = 64 << 10

// newFrame starts a frame on s with room for a body of the given size
// behind the prefix. The caller appends the body.
func newFrame(s *stream, body int) (*frame, error) {
	size, err := s.frameLen(body)
	if err != nil {
		return nil, err
	}
	f := framePool.Get().(*frame)
	if cap(f.b) < size {
		f.b = make([]byte, 0, size)
	}
	f.rec = size - body
	f.b = f.b[:f.rec]
	return f, nil
}

// messageFrame builds msg's frame on s.
func messageFrame(s *stream, msg *message) (*frame, error) {
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

// prefixed writes the frame's prefix on s in front of the record, short
// with the number num or spelled, and returns the frame from it.
func (f *frame) prefixed(s *stream, short bool, num uint64) []byte {
	n := prefixLen(s, short, num)
	p := f.b[f.rec-n : f.rec-n] // appends in place, up to the record
	switch {
	case short && s.epoch != 0:
		p = binary.AppendUvarint(binary.BigEndian.AppendUint32(append(p, frameNumbered), s.key), num)
	case short:
		p = binary.BigEndian.AppendUint32(append(p, frameShort), s.key)
	case s.epoch != 0:
		p = binary.BigEndian.AppendUint16(append(p, frameIncarnate), uint16(len(s.name)))
		p = binary.AppendUvarint(append(p, s.name...), s.epoch)
	default:
		p = binary.BigEndian.AppendUint16(append(p, frameSpelled), uint16(len(s.name)))
		p = append(p, s.name...)
	}
	return f.b[f.rec-n:]
}

// prefixLen is the length of a prefix on s, short with the number num or
// spelled.
func prefixLen(s *stream, short bool, num uint64) int {
	switch {
	case short && s.epoch != 0:
		return shortHeader + rec.UvarintLen(num)
	case short:
		return shortHeader
	case s.epoch != 0:
		return spelledHeader + len(s.name) + rec.UvarintLen(s.epoch)
	}
	return spelledHeader + len(s.name)
}

// release returns the frame to the pool once its Sends have returned.
func (f *frame) release() {
	if cap(f.b) > maxPooledFrame {
		f.b = nil
	}
	framePool.Put(f)
}

// frameLen returns the length of a frame on s with a body of the given
// size, its prefix the longest s can have (spelled, with the epoch, or
// short, with the widest number), or an error when no transport would
// carry it: a frame that fits here fits in every form.
func (s *stream) frameLen(body int) (int, error) {
	if len(s.name) > 0xFFFF {
		return 0, fmt.Errorf("multicast: stream name too long (%d bytes)", len(s.name))
	}
	n := max(prefixLen(s, false, 0), prefixLen(s, true, math.MaxUint64)) + body
	if n > netsim.MaxFrame {
		return 0, fmt.Errorf("multicast: %s: %w (%d bytes)", s.name, netsim.ErrFrameTooLarge, n)
	}
	return n, nil
}

// fits checks, before a protocol stamps or persists a publication, that
// msg's frame on s is one a transport carries, in every form. The caller
// sets the fields it does not know yet to their widest: a frame refused
// here is refused every time, so no retransmission could deliver it.
func fits(s *stream, msg *message) error {
	size, err := messageSize(msg)
	if err == nil {
		_, err = s.frameLen(size)
	}
	return err
}

// dispatch routes an inbound transport frame to its stream's group, and
// answers and books the handshake.
func (m *Mux) dispatch(from string, data []byte) {
	if len(data) < 1 {
		return
	}
	switch kind := data[0]; kind {
	case frameShort, frameNumbered:
		m.short(from, data)
	case frameSpelled, frameIncarnate:
		m.spelled(from, data)
	case frameKnown, frameUnknown:
		m.answered(from, data)
	}
}

// short hands a short frame to the group it resolves to, or answers
// unknown.
func (m *Mux) short(from string, data []byte) {
	if len(data) < shortHeader {
		return
	}
	key, rest := binary.BigEndian.Uint32(data[1:shortHeader]), data[shortHeader:]
	var h handler
	var in incarnation
	var num uint64
	if data[0] == frameNumbered {
		d := rec.Reader{Buf: rest}
		if num = d.NonZero("number"); d.Err != nil {
			return
		}
		rest = rest[d.Off:]
		m.mu.RLock()
		if hd := m.heard[peerKey{from, key}]; hd != nil {
			for _, b := range hd.bound {
				if b.num == num {
					h, in = b.s.h, b.incarnation
					break
				}
			}
		}
		m.mu.RUnlock()
	} else {
		m.mu.RLock()
		if rs := m.keys[key]; len(rs) == 1 {
			h = rs[0].h
		}
		m.mu.RUnlock()
	}
	if h == nil {
		m.control(from, frameUnknown, key, 0, num)
		return
	}
	h(from, in, rest)
}

// spelled hands a spelled frame to the group of the stream it names,
// made by the fallback if there is none, binds a numbered one's
// incarnation, and confirms the stream.
func (m *Mux) spelled(from string, data []byte) {
	if len(data) < spelledHeader {
		return
	}
	n := int(binary.BigEndian.Uint16(data[1:spelledHeader]))
	if len(data) < spelledHeader+n {
		return
	}
	name, rest := data[spelledHeader:spelledHeader+n], data[spelledHeader+n:]
	var epoch uint64
	if data[0] == frameIncarnate {
		d := rec.Reader{Buf: rest}
		if epoch = d.NonZero("epoch"); d.Err != nil {
			return
		}
		rest = rest[d.Off:]
	}
	m.mu.RLock()
	fb := m.fallback
	open := m.streams[string(name)] != nil // no allocation: the conversion only keys the lookup
	m.mu.RUnlock()
	if !open && fb != nil {
		fb(string(name))
	}
	key := streamKey(name)
	m.mu.Lock()
	s := m.streams[string(name)]
	var h handler
	var in incarnation
	confirm := false
	switch {
	case s == nil:
	case epoch != 0:
		in, confirm = m.bindLocked(from, s, epoch)
		if confirm {
			h = s.h
		}
	default:
		h, confirm = s.h, len(m.keys[key]) == 1
	}
	m.mu.Unlock()
	if confirm {
		m.control(from, frameKnown, key, in.epoch, in.num)
	}
	if h != nil {
		h(from, in, rest)
	}
}

// bindLocked returns the incarnation of origin's group on s whose epoch
// a spelled frame carries, numbered: the bound one again, or a new
// number for a later epoch. It reports false for an earlier epoch, a
// straggler of a dead incarnation, which gets no number. Caller holds
// mu.
func (m *Mux) bindLocked(origin string, s *stream, epoch uint64) (incarnation, bool) {
	pk := peerKey{origin, s.key}
	hd := m.heard[pk]
	if hd == nil {
		hd = &heard{}
		m.heard[pk] = hd
	}
	i := slices.IndexFunc(hd.bound, func(b binding) bool { return b.s.name == s.name })
	if i < 0 {
		hd.bound = append(hd.bound, binding{s: s})
		i = len(hd.bound) - 1
	}
	b := &hd.bound[i]
	switch {
	case epoch < b.epoch:
		return incarnation{}, false
	case epoch > b.epoch:
		hd.last++
		b.incarnation = incarnation{epoch, hd.last}
	}
	b.s = s
	return b.incarnation, true
}

// answered books a known or an unknown frame.
func (m *Mux) answered(from string, data []byte) {
	if len(data) < shortHeader {
		return
	}
	key := binary.BigEndian.Uint32(data[1:shortHeader])
	d := rec.Reader{Buf: data[shortHeader:]}
	var epoch, num uint64
	if len(d.Buf) > 0 {
		if data[0] == frameKnown {
			epoch = d.NonZero("epoch")
		}
		if num = d.NonZero("number"); d.End() != nil {
			return
		}
	}
	var h handler
	var parked []byte
	m.mu.Lock()
	rs := m.keys[key]
	for _, s := range rs {
		switch {
		case data[0] == frameKnown && epoch != 0:
			// The epoch names the one group this node has had on the
			// stream that was confirmed.
			if s.epoch == epoch {
				s.known[from] = num
				if parked = s.parked[from]; parked != nil {
					h = s.h
					delete(s.parked, from)
				}
			}
		case data[0] == frameKnown:
			// Without an epoch, the key alone says what was confirmed:
			// with two streams under it, this node cannot tell which, and
			// keeps spelling both.
			if len(rs) == 1 && s.epoch == 0 {
				s.known[from] = 0
			}
		default:
			if got, ok := s.known[from]; ok && got == num {
				delete(s.known, from)
			}
		}
	}
	m.mu.Unlock()
	if h != nil {
		h(from, incarnation{}, parked)
	}
}

// control sends a handshake frame about key to addr: with an epoch, a
// known frame's number for it; with a number alone, an unknown frame's.
// A lost one costs a spelled frame more, or a short frame dropped, and
// the next frame on the stream draws another.
func (m *Mux) control(addr string, kind byte, key uint32, epoch, num uint64) {
	f := framePool.Get().(*frame)
	f.b = binary.BigEndian.AppendUint32(append(f.b[:0], kind), key)
	if epoch != 0 {
		f.b = binary.AppendUvarint(f.b, epoch)
	}
	if num != 0 {
		f.b = binary.AppendUvarint(f.b, num)
	}
	_ = m.tr.Send(addr, f.b)
	f.release()
}
