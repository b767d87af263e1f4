package multicast

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"govents/internal/chunk"
	"govents/internal/clock"
	"govents/internal/seqset"
)

// Reliable is an acknowledgement-based, sender-driven reliable broadcast:
// the publisher retransmits a message to each member until that member
// acknowledges it or leaves the membership. It realizes the paper's
// Reliable delivery semantics (§3.1.2): "once successfully published, a
// reliable obvent will be received by any notifiable that is up for
// long enough".
//
// Identity, acknowledgement and order are per link — one (origin →
// destination) pair — not per message. The sender numbers what it sends
// each destination 1, 2, 3, … and stamps every data frame with its base,
// the lowest link sequence it still owes that destination; its epoch
// (the incarnation of this group: a restarted sender starts a new link
// rather than being mistaken for its own duplicates) rides the stream's
// handshake (Mux), which hands the receiver the epoch of every frame,
// and the receiver's acknowledgements name it by the number it gave it.
// The receiver keeps, per origin, a seqset.Set of what it has received: the
// cumulative sequence below which everything is settled, and the runs
// of sequences received ahead of it. It hands frames to its upcall in
// link-sequence order: a frame waits only while a hole sits below it,
// and a hole closes by arrival, by retransmission or by the sender's
// base passing it. That order is all the FIFO class needs and what
// Causal and Total build on; nothing above this type numbers messages
// again. The receiver acknowledges cumulatively and in batches (acker),
// the sender retransmits only what has gone a full RetransmitInterval
// without acknowledgement, and the timer period in which it abandons a
// destination that left the membership announces the base that moved.
// The "Link protocol" section of the govents package documentation has
// the frame layouts and the rules in full.
//
// State on both ends is bounded by the traffic in flight: the sender
// holds one queue entry per (message, destination) pair sent since the
// oldest one still unacknowledged, with a copy of its payload in the
// group's recycled chunks (internal/chunk), the receiver one run per
// hole in what it has received (at most maxAhead per origin) and a copy
// of the frames of those runs, and both one small record per peer ever
// addressed or heard. Nothing is remembered per delivered message.
//
// The protocol tolerates message loss and duplication but not publisher
// crash (there is no relay phase: Total's sequencer, the one sender that
// publishes on behalf of others, names the publisher on the frame); that
// stronger guarantee is Certified's: the same link over stable storage.
type Reliable struct{ *link }

// link is the protocol Reliable documents, and Certified's, which
// differs where cert is consulted: each entry names the outbox offset it
// sends, it stages what it takes, and it acknowledges under each durable
// identity (ids).
type link struct {
	mux    *Mux
	stream *stream // its epoch is the group's incarnation
	self   string
	opts   Options
	cert   *Certified // nil on a reliable link

	upcall  *releaseList
	members membership
	// timer runs tick, a period after it is armed: from the first frame
	// or acknowledgement the link owes until it owes nothing.
	timer  clock.Job
	period time.Duration

	// mu is also the stamping lock: a broadcast takes its place on every
	// link and in the upcall list in one critical section, and a receiver
	// lists what a frame releases in the one that books it.
	mu    sync.Mutex
	armed bool // the timer is armed, or tick is running
	// gen counts acknowledgement-timer periods: each tick starts one,
	// and so does arming the idle timer, as if it had run across the
	// idle stretch (queued entries, whose age gen measures, keep it
	// running).
	gen      uint64
	bcast    uint64              // broadcasts issued; names a broadcast across its links
	out      map[string]*outLink // destination -> what it has not acknowledged
	in       map[string]*inLink  // origin -> what has been received from it
	ids      []string            // what each acknowledgement names: a certified link's identities (Certified.SetView)
	observer PruneObserver       // optional pruning counters sink

	// tickFrames is the cleared slice of what a tick last sent, kept for
	// its capacity. The running tick owns it (ticks run one at a time), and
	// writes it only in a period that sends something.
	tickFrames []linkFrame
	// chunks holds the links' copies of what they queue.
	chunks chunk.Store
	// names counts the names NextName gave.
	names atomic.Uint64
}

// The acknowledgement policy's constants; the timer is the one knob
// (RetransmitInterval) divided, not a second one.
const (
	// ticksPerInterval is how many acknowledgement-timer periods make a
	// RetransmitInterval. An acknowledgement is at most one period late,
	// so a frame that arrived is acknowledged well inside the interval
	// after which its sender would resend it.
	ticksPerInterval = 4
	// ackEvery is how many delivered frames a receiver lets accumulate
	// before it acknowledges without waiting for the timer.
	ackEvery = 16
	// maxAckList bounds the runs of sequences above the cumulative one
	// that a single acknowledgement names (the lowest ones: they are the
	// next the cumulative sequence will absorb).
	maxAckList = 32
	// maxAhead bounds the runs a receiver holds per origin, that is the
	// holes it tolerates in what it has received. A frame that would open
	// one more is dropped unacknowledged and comes back by retransmission
	// once the holes below it have filled.
	maxAhead = 256
	// restCap bounds the capacity a certified link that owes nothing
	// keeps for its queue: a burst's is let go, so that the publisher
	// holds only what is in flight beside its outbox.
	restCap = 64
)

// lastEpoch makes epochs strictly increasing within a process even when
// the clock's resolution is coarser than a close-and-reopen.
var lastEpoch atomic.Uint64

// newEpoch stamps a group incarnation: wall-clock microseconds, so that
// a restarted process outranks the one it replaces.
func newEpoch() uint64 {
	for {
		last := lastEpoch.Load()
		e := max(uint64(time.Now().UnixMicro()), last+1)
		if lastEpoch.CompareAndSwap(last, e) {
			return e
		}
	}
}

// outLink is the sender's end of one link: the frames a destination has
// not acknowledged, in link-sequence order.
type outLink struct {
	// next is the last link sequence assigned. It is never reused, and
	// survives the destination leaving the membership: what it is sent
	// after returning continues the numbering, and the base on those
	// frames steps its receiver over everything dropped meanwhile.
	next uint64
	// settled holds the link sequences acknowledged or dropped.
	settled seqset.Set
	// entries[head:] carry the sequences above the floor of settled up to
	// next, the ones settled holds included, each with its copy of the
	// payload, in store.
	entries []outEntry
	head    int
	store   *chunk.Store
}

// outEntry is one queued frame of a link: its payload, the link's copy
// in chunk; the publisher it names, empty unless the broadcast was on
// another node's behalf; a certified event's ID; and the broadcast it
// belongs to, which on a certified link is the event's outbox offset.
type outEntry struct {
	payload    []byte
	chunk      *chunk.Chunk
	origin, id string
	bcast      uint64
	gen        uint64 // timer period of the latest transmission
}

// frame is the entry's data frame at link sequence seq, naming base.
func (e *outEntry) frame(seq, base uint64) message {
	return message{Kind: kindData, Seq: seq, Base: base, Origin: e.origin, ID: e.id, Payload: e.payload}
}

// seqAt is the link sequence of entries[i].
func (l *outLink) seqAt(i int) uint64 { return l.next - uint64(len(l.entries)-1-i) }

// base is the lowest link sequence still owed.
func (l *outLink) base() uint64 { return l.settled.Floor() + 1 }

// push queues e as the next frame, with a copy of its payload, and
// returns its link sequence.
func (l *outLink) push(e outEntry) uint64 {
	l.next++
	e.payload, e.chunk = l.store.Copy(e.payload)
	l.entries = append(l.entries, e)
	return l.next
}

// settle retires the queued frames with link sequences lo through hi,
// dropping, with their copies, what the base passes, and keeps the
// queue's backing array from creeping: once the dead prefix is the
// larger part, the live entries move down over it.
func (l *outLink) settle(lo, hi uint64) {
	l.settled.Add(lo, min(hi, l.next), 0)
	for l.head < len(l.entries) && l.seqAt(l.head) < l.base() {
		l.store.Release(l.entries[l.head].chunk)
		l.entries[l.head] = outEntry{}
		l.head++
	}
	if l.head > len(l.entries)-l.head {
		l.entries, l.head = slices.Delete(l.entries, 0, l.head), 0
	}
}

// drop forgets everything queued: the destination is no longer owed it.
func (l *outLink) drop() {
	for _, e := range l.entries[l.head:] {
		l.store.Release(e.chunk)
	}
	clear(l.entries)
	l.entries, l.head = l.entries[:0], 0
	l.settled.Raise(l.next)
}

// inLink is the receiver's end of one link, from the sender's
// incarnation in.
type inLink struct {
	in incarnation
	// got's floor is the cumulative sequence, up to which every one was
	// handed to the upcall or written off by the sender's base; its runs,
	// maxAhead at most, are what was received beyond it, their frames
	// held by link sequence until the floor reaches them.
	got  seqset.Set
	held map[uint64]queuedMsg // copies, in the upcall list's store
	// staging holds the sequences of the certified frames being staged,
	// which stage does without the group's lock.
	staging map[uint64]bool
	// ready collects, in link order, the frames raise and note release;
	// the caller lists them for the upcall and clears it.
	ready []queuedMsg
	acker
}

// acker is the acknowledging half of a link's receiving end: the data
// frames received since the last acknowledgement, and the timer period
// that one went.
type acker struct {
	unacked int
	ackGen  uint64
}

// arrived books a data frame received in timer period gen, a duplicate
// like a first arrival, and reports whether the acknowledgement is due
// now: ackEvery frames await it, or none has gone out this period (a
// lone frame, or a lone duplicate whose acknowledgement was lost, is
// answered at once; only sustained traffic is batched).
func (a *acker) arrived(gen uint64) bool {
	a.unacked++
	return a.unacked >= ackEvery || a.ackGen != gen
}

// sent books an acknowledgement as sent in timer period gen.
func (a *acker) sent(gen uint64) { a.unacked, a.ackGen = 0, gen }

// raise applies a sender's base, nothing below which is owed any more,
// and releases the frames of the runs the cumulative sequence reaches.
func (l *inLink) raise(base uint64) {
	for _, r := range l.got.Raise(base - 1) {
		for seq := r.Lo; ; seq++ {
			l.ready = append(l.ready, l.held[seq])
			delete(l.held, seq)
			if seq == r.Hi {
				break
			}
		}
	}
}

// note records the first arrival of seq and its frame: released at once
// when it is the next in order, with whatever it was the hole below,
// and held otherwise, copied into up's store unless it is a copy
// already. It reports false when seq would open one hole more than a
// link remembers, in which case the frame must be dropped.
func (l *inLink) note(seq uint64, msg queuedMsg, up *releaseList) bool {
	if seq == l.got.Floor()+1 {
		l.ready = append(l.ready, msg)
		l.raise(seq + 1)
		return true
	}
	if !l.got.Add(seq, seq, maxAhead) {
		return false
	}
	if l.held == nil {
		l.held = make(map[uint64]queuedMsg)
	}
	if msg.kept == nil {
		msg.payload, msg.kept = up.keep(msg.payload)
	}
	l.held[seq] = msg
	return true
}

// ack builds the link's acknowledgement and books it as sent in timer
// period gen.
func (l *inLink) ack(gen uint64) message {
	l.sent(gen)
	cum, runs := l.got.Floor(), l.got.Runs()
	m := message{Kind: kindAck, Inc: l.in.num, Seq: cum}
	if len(runs) > 0 {
		m.Payload = seqset.AppendRuns(nil, cum, runs[:min(len(runs), maxAckList)])
	}
	return m
}

var _ Group = (*Reliable)(nil)

// NewReliable creates a reliable group on the given stream.
func NewReliable[U Upcall](mux *Mux, stream string, deliver U, opts Options) *Reliable {
	return &Reliable{newLink(mux, stream, upcallOf(deliver), opts, nil)}
}

// newLink opens a link on stream, certified when cert is not nil: cert's
// stores must be set, as the link may use them before newLink returns.
func newLink(mux *Mux, stream string, deliver DeliverFrom, opts Options, cert *Certified) *link {
	opts = opts.withDefaults()
	g := &link{
		mux:    mux,
		stream: newStream(stream, newEpoch()),
		self:   mux.Addr(),
		opts:   opts,
		cert:   cert,
		period: max(opts.RetransmitInterval/ticksPerInterval, time.Nanosecond),
		gen:    1, // 0 is inLink.ackGen's "never acknowledged"
		out:    make(map[string]*outLink),
		in:     make(map[string]*inLink),
		upcall: newReleaseList(deliver),
	}
	g.timer.Init(opts.Clock, g.tick)
	g.ids = []string{""} // one acknowledgement, naming no identity
	if cert != nil {
		g.ids = []string{g.self}
	}
	mux.open(g.stream, g.onMessage)
	return g
}

// NextName implements Group: the link's epoch, which its receivers'
// bindings name.
func (g *link) NextName() (inc, n uint64) { return g.stream.epoch, g.names.Add(1) }

// SetMembers implements Group. Members added after a broadcast do not
// retroactively receive it; members removed stop being owed what they
// have not acknowledged once it falls due for retransmission.
func (g *Reliable) SetMembers(members []string) { g.members.set(members) }

// SetPruneObserver installs the pruning-counters sink of BroadcastSplit.
func (g *Reliable) SetPruneObserver(obs PruneObserver) {
	g.mu.Lock()
	g.observer = obs
	g.mu.Unlock()
}

// Broadcast implements Group. The local node always receives its own
// broadcast, whether or not it appears in the membership.
func (g *Reliable) Broadcast(payload []byte) error {
	return g.BroadcastTo(append(g.members.others(g.self), g.self), payload)
}

// BroadcastTo reliably disseminates to an explicit destination set
// (which may include the local node), supporting publisher-side
// filtering (paper §2.3.2). Destinations that subsequently leave the
// membership stop being owed retransmissions. The group copies what it
// keeps: the caller may reuse the payload once the call returns.
func (g *Reliable) BroadcastTo(dests []string, payload []byte) error {
	return g.broadcastAs(g.self, []Send{{Dests: dests, Payload: payload}})
}

// BroadcastSplit publishes one event, shipping each Send's payload to
// its destinations only and counting the members of no Send as pruned.
// The publication is atomic with respect to every other broadcast of
// the group: all its link sequences, and its place in the upcall list,
// are assigned in one critical section, so any two publications are
// ordered the same way on every link that carries both. A destination
// of no Send is sent nothing, now or later: it consumed no link
// sequence, so it has no hole to heal.
func (g *Reliable) BroadcastSplit(sends []Send) error { return g.broadcastAs(g.self, sends) }

// broadcastAs is BroadcastSplit on behalf of origin.
func (g *link) broadcastAs(origin string, sends []Send) error {
	var few [4]linkFrame // the usual fan-out fits; append spills to the heap beyond it
	frames, run, err := g.stamp(origin, sends, few[:0])
	g.transmit(frames)
	if run {
		g.upcall.run()
	}
	return err
}

// linkFrame is one link frame and where it goes, and the chunk of its
// payload a retransmission holds while it is sent.
type linkFrame struct {
	addr  string
	msg   message
	chunk *chunk.Chunk
}

// stamp is the ordering half of a broadcast on behalf of origin, which
// the frames name when it is not the local node: it queues the
// publication on every destination's link, and posts it to the upcall
// list if this node is one, reporting whether the caller must then run
// the list, and appends to frames what transmit must then send. A
// caller that orders publications by a mark of its own (Causal's clock
// tick) marks and stamps under one lock, and transmits and runs outside
// it.
func (g *link) stamp(origin string, sends []Send, frames []linkFrame) ([]linkFrame, bool, error) {
	if g.timer.Stopped() {
		return frames, false, fmt.Errorf("multicast: reliable %s: closed", g.stream)
	}
	named := origin
	if origin == g.self {
		named = ""
	}
	for _, s := range sends {
		if !remote(s.Dests, g.self) {
			continue // delivered here only: no frame
		}
		if err := g.fits(named, s.Payload); err != nil {
			return frames, false, err
		}
	}
	sent, toSelf, run := 0, false, false
	var epoch uint64 // origin's, as DeliverFrom is told it here
	if origin == g.self {
		epoch = g.stream.epoch
	}

	g.mu.Lock()
	g.bcast++
	for _, s := range sends {
		sent += len(s.Dests)
		for _, addr := range s.Dests {
			if addr == g.self {
				if !toSelf {
					toSelf = true
					run = g.upcall.post(queuedMsg{origin: origin, epoch: epoch, payload: s.Payload})
				}
				continue
			}
			l := g.out[addr]
			if l == nil {
				l = &outLink{store: &g.chunks}
				g.out[addr] = l
			}
			if n := len(l.entries); n > 0 && l.entries[n-1].bcast == g.bcast {
				continue // addr listed twice
			}
			frames = append(frames, g.queueLocked(addr, l, outEntry{payload: s.Payload, origin: named, bcast: g.bcast}))
		}
	}
	obs := g.observer
	g.mu.Unlock()

	if obs != nil {
		if pruned := len(g.members.snapshot()) - sent; pruned > 0 {
			obs(uint64(pruned), 0)
		}
	}
	return frames, run, nil
}

// queueLocked queues e on addr's link l, sent in this period, and
// returns its frame. The frame carries the caller's payload, not the
// link's copy: once mu is released, an acknowledgement may release the
// copy. Caller holds mu.
func (g *link) queueLocked(addr string, l *outLink, e outEntry) linkFrame {
	g.armLocked()
	e.gen = g.gen
	seq := l.push(e)
	return linkFrame{addr: addr, msg: e.frame(seq, l.base())}
}

// armLocked starts the timer unless it runs, and with it a period: the
// link owes a frame or an acknowledgement. Caller holds mu.
func (g *link) armLocked() {
	if !g.armed {
		g.armed = true
		g.timer.Reset(g.period)
		g.gen++
	}
}

// fits refuses, before it takes a link sequence, a payload whose data
// frame naming origin (empty for this node) no transport would carry,
// with the link sequence and base at their widest.
func (g *link) fits(named string, payload []byte) error {
	err := fits(g.stream, &message{Kind: kindData, Seq: math.MaxUint64, Base: 1, Origin: named, Payload: payload})
	if err != nil {
		return fmt.Errorf("multicast: reliable %s: %w", g.stream, err)
	}
	return nil
}

// transmit sends link frames. A failed send is a lost frame:
// retransmission covers it.
func (g *link) transmit(frames []linkFrame) {
	for i := range frames {
		_ = g.mux.sendMessage(frames[i].addr, g.stream, &frames[i].msg)
	}
}

// Close implements Group.
func (g *link) Close() error {
	g.mux.close(g.stream)
	g.timer.Stop()
	g.upcall.close()
	return nil
}

// Outstanding returns the number of broadcasts still awaiting
// acknowledgements (test and monitoring aid).
func (g *Reliable) Outstanding() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	owed := make(map[uint64]struct{})
	for _, l := range g.out {
		for i := l.head; i < len(l.entries); i++ {
			if !l.settled.Has(l.seqAt(i)) {
				owed[l.entries[i].bcast] = struct{}{}
			}
		}
	}
	return len(owed)
}

// tick is one acknowledgement-timer period: it acknowledges whatever
// was received and not yet acknowledged, and retransmits the frames that
// have been out for a full RetransmitInterval since they were last sent.
// A frame sent during period p has been out for ticksPerInterval whole
// periods only once the generation passes p+ticksPerInterval. A link
// whose destination has left the membership is dropped instead, and
// announces the base that moved, so that its receiver, should it hear,
// is stepped over the frames dropped. A retransmission is the link's
// copy, sent outside mu: it holds the copy's chunk until it is sent, and
// on a certified link it is sent only if still owed (transmitOwed).
// The tick re-arms the timer while a destination has not acknowledged
// all that was queued for it, or if this tick sent an acknowledgement,
// and leaves it idle otherwise.
func (g *link) tick() {
	frames := g.tickFrames[:0]

	g.mu.Lock()
	g.gen++
	for origin, l := range g.in {
		if l.unacked > 0 {
			frames = g.appendAcks(frames, origin, l.ack(g.gen))
		}
	}
	// The period this tick starts has had an acknowledgement: the next
	// tick must end it, or a frame in it would be answered at once.
	held, owes := false, len(frames) > 0
	for addr, l := range g.out {
		if l.head == len(l.entries) {
			if g.cert != nil && cap(l.entries) > restCap {
				l.entries, l.head = nil, 0 // a burst's queue: see restCap
			}
			continue
		}
		base, checked := l.base(), false
		for i := l.head; i < len(l.entries); i++ {
			e := &l.entries[i]
			if g.gen-e.gen <= ticksPerInterval || l.settled.Has(l.seqAt(i)) {
				continue
			}
			if !checked {
				if checked = true; !g.members.has(addr) {
					l.drop() // a member that left the group no longer owes an ack
					frames = append(frames, linkFrame{addr: addr, msg: message{Kind: kindSkip, Base: l.base()}})
					break
				}
			}
			e.gen = g.gen
			g.chunks.Hold(e.chunk)
			held = true
			frames = append(frames, linkFrame{addr, e.frame(l.seqAt(i), base), e.chunk})
		}
		owes = owes || l.head < len(l.entries)
	}
	if g.armed = owes; owes {
		g.timer.Reset(g.period)
	}
	g.mu.Unlock()
	if g.cert != nil {
		g.cert.transmitOwed(frames)
	} else {
		g.transmit(frames)
	}
	if held {
		g.mu.Lock()
		for _, f := range frames {
			g.chunks.Release(f.chunk)
		}
		g.mu.Unlock()
	}
	if len(frames) > 0 {
		clear(frames) // pin no payload until the next period
		g.tickFrames = frames[:0]
	}
}

func (g *link) onMessage(from string, in incarnation, data []byte) {
	var m message
	if err := decodeMessage(data, &m); err != nil {
		return
	}
	switch m.Kind {
	case kindData, kindSkip:
		g.onLink(from, in, &m)
	case kindAck:
		if !g.mux.acked(g.stream, from, m.Inc, data) {
			return // names no incarnation of this group that from numbered
		}
		if g.cert != nil {
			g.cert.book(from, &m)
			return
		}
		g.mu.Lock()
		if l := g.out[from]; l != nil {
			l.settle(1, m.Seq)
			seqset.EachRun(m.Payload, m.Seq, l.settle)
		}
		g.mu.Unlock()
	}
}

// onLink books a link frame from the sender's incarnation in — a data
// frame, or a base announcement, which is a base and nothing else —
// acknowledges a data frame according to the policy in the type's
// documentation, and then delivers, on the caller, whatever the frame
// lets out in link order.
func (g *link) onLink(from string, in incarnation, m *message) {
	if in.epoch == 0 || m.Base == 0 {
		return // not a link frame
	}
	origin := from
	if m.Origin != "" {
		origin = m.Origin
	}
	g.mu.Lock()
	l := g.in[from]
	switch {
	case l == nil || in.epoch > l.in.epoch:
		// A sender never heard from, or its next incarnation: the link
		// starts at the frame's base. What is still held of the previous
		// incarnation goes out first; its holes will never fill.
		var ready []queuedMsg
		if l != nil {
			l.raise(math.MaxUint64)
			ready = l.ready
		}
		l = &inLink{in: in, ready: ready}
		l.got.Raise(m.Base - 1)
		g.in[from] = l
	case in.epoch < l.in.epoch:
		g.mu.Unlock()
		return // a straggler of a dead incarnation
	}
	l.raise(m.Base)
	// A duplicate is owed an acknowledgement like a first arrival (the
	// earlier one was lost, or the frame was resent before it landed),
	// and is batched like one: a burst of retransmissions is answered
	// by the cumulative acknowledgement its first frame draws. A frame
	// take refuses is owed none.
	var few [2]linkFrame
	acks := few[:0]
	if g.take(l, m, origin) {
		g.armLocked() // an acknowledgement is owed: now, or at the period's end
		if l.arrived(g.gen) {
			acks = g.appendAcks(acks, from, l.ack(g.gen))
		}
	}
	run := g.releaseLocked(l)
	g.mu.Unlock()

	g.transmit(acks)
	if run {
		g.upcall.run()
	}
}

// take books a data frame's arrival on l, a duplicate's or one the link
// notes (staged first if certified), and reports whether it is owed an
// acknowledgement: a frame refused, or a base announcement, is not.
func (g *link) take(l *inLink, m *message, origin string) bool {
	if m.Kind != kindData {
		return false
	}
	if l.got.Has(m.Seq) {
		return true
	}
	msg := queuedMsg{origin: origin, payload: m.Payload}
	if m.Origin == "" { // not relayed: the link names origin's epoch
		msg.epoch = l.in.epoch
	}
	if g.cert != nil {
		var ok bool
		if msg, ok = g.stage(l, m, msg); !ok {
			return false
		}
	}
	return l.got.Has(m.Seq) || l.note(m.Seq, msg, g.upcall)
}

// appendAcks appends the acknowledgement ack to to once under each of
// the link's identities.
func (g *link) appendAcks(frames []linkFrame, to string, ack message) []linkFrame {
	for _, id := range g.ids {
		ack.Origin = id
		frames = append(frames, linkFrame{addr: to, msg: ack})
	}
	return frames
}

// releaseLocked posts what a link has ready for the upcall, in order,
// bar a certified event that was staged already (a zero queuedMsg), and
// reports whether the caller must run the list. Caller holds g.mu, which
// is what keeps two frames of one link from being listed out of turn,
// and what it posts is either held copies or the frame the caller lends.
func (g *link) releaseLocked(l *inLink) bool {
	ready := slices.DeleteFunc(l.ready, func(msg queuedMsg) bool { return msg.origin == "" })
	run := len(ready) > 0 && g.upcall.post(ready...)
	clear(l.ready)
	l.ready = l.ready[:0]
	return run
}
