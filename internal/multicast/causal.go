package multicast

import (
	"slices"
	"sync"

	"govents/internal/chunk"
	"govents/internal/clock"
	"govents/internal/vclock"
)

// Causal layers vector-clock causal ordering (CBCAST-style) on top of
// Reliable: obvents are delivered in an order consistent with the
// happens-before relationship of their publications (paper §3.1.2,
// [Lam78]). The link below hands over each origin's frames in the order
// that origin published them, so a frame from origin j carrying clock V
// is by construction the next one from j, and is deliverable at a node
// once V[k] is not ahead of the node's clock for any other k; otherwise
// it is held back. Delivering it moves the node's clock for j to V[j].
//
// The class is interest-aware: BroadcastSplit ships data frames only to
// interested destinations. A destination that was pruned misses the
// publisher's tick, which would block a third party's causal successor
// there forever, so destinations that were not sent the latest tick get
// a payload-less marker carrying the publisher's clock on the next
// flush, a RetransmitInterval after the publication that left one behind
// (the flush timer runs only then); consuming one merges that clock
// without an upcall. Skipping is
// sound because causal order only constrains the events a node actually
// delivers, and a skipped event's causal successors still wait for the
// clock advance the marker carries.
type Causal struct {
	inner   *Reliable
	self    string
	deliver DeliverFrom
	flushes clock.Job // armed while a member is behind the clock

	mu       sync.Mutex
	armed    bool // flushes is armed, or flush is running
	clock    vclock.VC
	lastVC   vclock.VC         // clock of the latest publication (the marker's body)
	sent     map[string]uint64 // destination -> latest own tick shipped to it
	observer PruneObserver
	hold     []heldMsg
}

// heldMsg is a frame waiting for its causal predecessors; marker marks
// a payload-less clock marker. A frame held past the upcall that lent it
// is a copy in the inner list's store (kept).
type heldMsg struct {
	origin  string
	epoch   uint64
	vc      vclock.VC
	marker  bool
	payload []byte
	kept    *chunk.Chunk
}

var _ Group = (*Causal)(nil)

// NewCausal creates a causally ordered group on the given stream.
func NewCausal[U Upcall](mux *Mux, stream string, deliver U, opts Options) *Causal {
	opts = opts.withDefaults()
	g := &Causal{
		self:    mux.Addr(),
		deliver: upcallOf(deliver),
		clock:   vclock.New(),
		sent:    make(map[string]uint64),
	}
	g.flushes.Init(opts.Clock, g.flush)
	g.inner = NewReliable(mux, stream, g.onInner, opts)
	return g
}

// NextName implements Group.
func (g *Causal) NextName() (inc, n uint64) { return g.inner.NextName() }

// SetMembers implements Group.
func (g *Causal) SetMembers(members []string) {
	g.inner.SetMembers(members)
	g.mu.Lock()
	for d := range g.sent {
		if !slices.Contains(members, d) {
			delete(g.sent, d)
		}
	}
	g.armLocked()
	g.mu.Unlock()
}

// armLocked starts the idle flush timer if a member other than this
// node was not sent the latest tick. Caller holds mu.
func (g *Causal) armLocked() {
	tick := g.clock.Get(g.self)
	for _, d := range g.inner.members.snapshot() {
		if !g.armed && d != g.self && g.sent[d] < tick {
			g.armed = true
			g.flushes.Reset(g.inner.opts.RetransmitInterval)
		}
	}
}

// SetPruneObserver installs the pruning-counters sink.
func (g *Causal) SetPruneObserver(obs PruneObserver) {
	g.inner.SetPruneObserver(obs)
	g.mu.Lock()
	g.observer = obs
	g.mu.Unlock()
}

// Broadcast implements Group: an unpruned publication to the whole
// membership (including self).
func (g *Causal) Broadcast(payload []byte) error {
	return g.BroadcastSplit([]Send{{Dests: append(g.inner.members.others(g.self), g.self), Payload: payload}})
}

// BroadcastSplit publishes one event under a single vector-clock tick,
// shipping each Send's payload variant to its destinations only. The
// tick and the publication's place on the links are one critical
// section, so a link carries its publisher's ticks in ascending order.
// A local delivery runs after it, since onInner takes g.mu.
func (g *Causal) BroadcastSplit(sends []Send) error {
	framed := make([]Send, len(sends))
	var few [4]linkFrame
	g.mu.Lock()
	g.clock.Tick(g.self)
	vc := g.clock.Copy()
	g.lastVC = vc
	tick := vc.Get(g.self)
	for i, s := range sends {
		wire, err := encodeMessage(&message{Kind: kindData, VC: vc, Payload: s.Payload})
		if err != nil {
			g.mu.Unlock()
			return err
		}
		framed[i] = Send{Dests: s.Dests, Payload: wire}
		for _, d := range s.Dests {
			g.sent[d] = tick
		}
	}
	frames, run, err := g.inner.stamp(g.self, framed, few[:0])
	g.armLocked()
	g.mu.Unlock()
	g.inner.transmit(frames)
	if run {
		g.inner.upcall.run()
	}
	return err
}

// flush ships a clock marker to every member that was not sent the
// latest tick. Without it a pruned tick could block a causal successor
// at another node forever (the successor's clock references a tick its
// holder never sees data for). A marker overtaken by a later tick's
// data is harmless: merging a clock never moves it back. It leaves the
// timer idle: every member is sent the latest tick.
func (g *Causal) flush() {
	var lagging []string
	g.mu.Lock()
	tick, vc, obs := g.clock.Get(g.self), g.lastVC, g.observer
	for _, d := range g.inner.members.snapshot() {
		if d != g.self && g.sent[d] < tick {
			g.sent[d] = tick
			lagging = append(lagging, d)
		}
	}
	g.armed = false
	g.mu.Unlock()
	if len(lagging) == 0 {
		return
	}
	wire, err := encodeMessage(&message{Kind: kindSkip, VC: vc})
	if err != nil {
		return
	}
	if obs != nil {
		obs(0, uint64(len(lagging)))
	}
	_ = g.inner.BroadcastTo(lagging, wire)
}

// Close implements Group.
func (g *Causal) Close() error {
	g.flushes.Stop()
	return g.inner.Close()
}

// Held returns the number of messages waiting for causal predecessors
// (test and monitoring aid).
func (g *Causal) Held() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.hold)
}

// onInner is the inner link's upcall: one call at a time, in link
// order, on the goroutine that released the frame.
func (g *Causal) onInner(origin string, epoch uint64, data []byte) {
	var m message
	if err := decodeMessage(data, &m); err != nil || (m.Kind != kindData && m.Kind != kindSkip) {
		return
	}
	if origin == g.self {
		// Own publications were ticked at Broadcast and are always
		// locally deliverable in publication order.
		if m.Kind == kindData {
			g.deliver(origin, epoch, m.Payload)
		}
		return
	}

	g.mu.Lock()
	g.hold = append(g.hold, heldMsg{origin: origin, epoch: epoch, vc: m.VC, marker: m.Kind == kindSkip, payload: m.Payload})
	ready := g.releaseLocked()
	if n := len(g.hold); n > 0 && g.hold[n-1].kept == nil {
		// This frame waits (releasing keeps the rest in order, so it is
		// the last), and its payload is lent for this call only.
		h := &g.hold[n-1]
		h.payload, h.kept = g.inner.upcall.keep(h.payload)
	}
	g.mu.Unlock()

	for _, r := range ready {
		g.deliver(r.origin, r.epoch, r.payload)
		g.inner.upcall.release(r.kept)
	}
}

// releaseLocked releases, until none is left, the earliest held frame
// whose causal predecessors have been delivered (or covered by a
// consumed marker). Starting over from the front after every release
// keeps an origin's frames in link order: a later one depends on
// everything an earlier one does. Consuming a marker merges its clock
// without producing a delivery. Caller holds g.mu.
func (g *Causal) releaseLocked() []heldMsg {
	var ready []heldMsg
	for i := 0; i < len(g.hold); {
		h := g.hold[i]
		if !g.deliverableLocked(h) {
			i++
			continue
		}
		g.clock.Merge(h.vc)
		if !h.marker {
			ready = append(ready, h)
		}
		g.hold = slices.Delete(g.hold, i, i+1)
		i = 0
	}
	return ready
}

// deliverableLocked applies the CBCAST condition as it stands on an
// in-order link: the frame is its origin's next, so all that can be
// missing is another origin's entry ahead of the local clock.
func (g *Causal) deliverableLocked(h heldMsg) bool {
	for k, v := range h.vc {
		if k != h.origin && v > g.clock.Get(k) {
			return false
		}
	}
	return true
}
