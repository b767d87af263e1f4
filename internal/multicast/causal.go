package multicast

import (
	"sync"

	"govents/internal/vclock"
)

// Causal layers vector-clock causal ordering (CBCAST-style) on top of
// Reliable: obvents are delivered in an order consistent with the
// happens-before relationship of their publications (paper §3.1.2,
// [Lam78]). A message from origin j carrying clock V is deliverable at a
// node once V[j] equals the node's clock for j plus one and V[k] is not
// ahead of the node's clock for any other k; otherwise it is held back.
//
// The class is interest-aware: BroadcastSplit ships data frames only to
// interested destinations, and every frame carries the range of the
// origin's own ticks it covers (SkipFrom..V[j]), so a destination
// pruned for a while advances its clock for j over the skipped ticks
// from the next frame it does receive. Destinations with no follow-up
// data get periodic skip markers carrying the publisher's latest clock;
// consuming one merges that clock without an upcall. Skipping is sound
// because causal order only constrains the events a node actually
// delivers, and a skipped event's causal successors still wait for
// the clock advance the marker carries.
type Causal struct {
	inner   *Reliable
	self    string
	deliver Deliver
	lc      *lifecycle

	mu       sync.Mutex
	clock    vclock.VC
	lastVC   vclock.VC // clock of the latest publication (skip-marker body)
	tracker  *skipTracker
	observer PruneObserver
	hold     []heldMsg
}

// heldMsg is a message waiting for its causal predecessors. from is the
// first of the origin's ticks the frame covers; skip marks a
// payload-less marker.
type heldMsg struct {
	origin  string
	vc      vclock.VC
	from    uint64
	skip    bool
	payload []byte
}

var _ Group = (*Causal)(nil)

// NewCausal creates a causally ordered group on the given stream.
func NewCausal(mux *Mux, stream string, deliver Deliver, opts Options) *Causal {
	opts = opts.withDefaults()
	g := &Causal{
		self:    mux.Addr(),
		deliver: deliver,
		lc:      newLifecycle(),
		clock:   vclock.New(),
		tracker: newSkipTracker(),
	}
	g.inner = NewReliable(mux, stream, g.onInner, opts)
	g.lc.goTick(opts.RetransmitInterval, g.flush)
	return g
}

// SetMembers implements Group.
func (g *Causal) SetMembers(members []string) {
	g.inner.SetMembers(members)
	g.mu.Lock()
	g.tracker.retain(members)
	g.mu.Unlock()
}

// SetPruneObserver installs the pruning-counters sink.
func (g *Causal) SetPruneObserver(obs PruneObserver) {
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
// shipping each Send's payload variant to its destinations only.
func (g *Causal) BroadcastSplit(sends []Send) error {
	type frame struct {
		dests []string
		wire  []byte
	}
	var frames []frame
	sent := 0
	g.mu.Lock()
	g.clock.Tick(g.self)
	vc := g.clock.Copy()
	seq := vc.Get(g.self)
	g.lastVC = vc
	g.tracker.mark(seq)
	for _, s := range sends {
		sent += len(s.Dests)
		for from, dests := range g.tracker.advance(s.Dests, seq) {
			wire, err := encodeMessage(&message{Kind: kindData, VC: vc, SkipFrom: from, Payload: s.Payload})
			if err != nil {
				g.mu.Unlock()
				return err
			}
			frames = append(frames, frame{dests: dests, wire: wire})
		}
	}
	pruned := len(g.inner.members.snapshot()) - sent
	obs := g.observer
	g.mu.Unlock()
	if obs != nil && pruned > 0 {
		obs(uint64(pruned), 0)
	}
	for _, f := range frames {
		if err := g.inner.BroadcastTo(f.dests, f.wire); err != nil {
			return err
		}
	}
	return nil
}

// flush ships skip markers carrying the latest publication's clock to
// every destination trailing the head. The pending range of any lagging
// destination always ends at the latest publication, so one clock
// serves every marker. Without the flush a pruned tick could block a
// causal successor at another node forever (the successor's clock
// references a tick its holder never sees data for).
func (g *Causal) flush() {
	type frame struct {
		dests []string
		wire  []byte
	}
	var frames []frame
	var skips uint64
	g.mu.Lock()
	vc := g.lastVC
	for from, dests := range g.tracker.lagging(g.inner.members.snapshot()) {
		wire, err := encodeMessage(&message{Kind: kindSkip, VC: vc, SkipFrom: from})
		if err != nil {
			continue
		}
		frames = append(frames, frame{dests: dests, wire: wire})
		skips += uint64(len(dests))
	}
	obs := g.observer
	g.mu.Unlock()
	if obs != nil && skips > 0 {
		obs(0, skips)
	}
	for _, f := range frames {
		_ = g.inner.BroadcastTo(f.dests, f.wire)
	}
}

// Close implements Group.
func (g *Causal) Close() error {
	g.lc.close()
	return g.inner.Close()
}

// Held returns the number of messages waiting for causal predecessors
// (test and monitoring aid).
func (g *Causal) Held() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.hold)
}

// onInner runs on the inner group's single delivery goroutine.
func (g *Causal) onInner(origin string, data []byte) {
	var m message
	if err := decodeMessage(data, &m); err != nil || (m.Kind != kindData && m.Kind != kindSkip) {
		return
	}

	if origin == g.self {
		// Own publications were ticked at Broadcast and are always
		// locally deliverable in publication order; own skip markers
		// carry a clock the local node already holds.
		if m.Kind == kindData {
			g.deliver(origin, m.Payload)
		}
		return
	}

	h := heldMsg{
		origin:  origin,
		vc:      m.VC,
		from:    coveredFrom(m.SkipFrom, m.VC.Get(origin)),
		skip:    m.Kind == kindSkip,
		payload: m.Payload,
	}
	g.mu.Lock()
	g.hold = append(g.hold, h)
	ready := g.releaseLocked()
	g.mu.Unlock()

	for _, r := range ready {
		g.deliver(r.origin, r.payload)
	}
}

// releaseLocked repeatedly scans the hold-back queue, releasing every
// message whose causal predecessors have been delivered (or covered by
// a consumed skip range) and dropping frames entirely below the local
// clock, until a fixpoint is reached. Consuming a skip marker merges
// its clock without producing a delivery. Caller holds g.mu.
func (g *Causal) releaseLocked() []heldMsg {
	var ready []heldMsg
	for {
		progress := false
		for i := 0; i < len(g.hold); i++ {
			h := g.hold[i]
			if h.vc.Get(h.origin) <= g.clock.Get(h.origin) {
				// Already covered (a stale or duplicate range): drop.
				g.hold = append(g.hold[:i], g.hold[i+1:]...)
				i--
				progress = true
				continue
			}
			if !g.deliverableLocked(h) {
				continue
			}
			// Deliver: advance the local clock to include it (for a
			// range frame this steps over every skipped tick at once).
			g.clock.Merge(h.vc)
			if !h.skip {
				ready = append(ready, h)
			}
			g.hold = append(g.hold[:i], g.hold[i+1:]...)
			i--
			progress = true
		}
		if !progress {
			return ready
		}
	}
}

// deliverableLocked applies the CBCAST condition, range-aware: the
// frame is deliverable once the start of the origin-tick range it
// covers is next (everything between it and the frame's own tick was
// deliberately skipped for this node) and no other origin's entry is
// ahead of the local clock.
func (g *Causal) deliverableLocked(h heldMsg) bool {
	if h.from > g.clock.Get(h.origin)+1 {
		return false
	}
	for k, v := range h.vc {
		if k == h.origin {
			continue
		}
		if v > g.clock.Get(k) {
			return false
		}
	}
	return true
}
