package multicast

import (
	"fmt"
	"sync"

	"govents/internal/codec"
)

// Total implements totally ordered broadcast with a fixed sequencer: all
// members deliver all messages in the same (subscriber-side) order, the
// paper's TotalOrder delivery semantics (§3.1.2).
//
// Publications are routed to the sequencer, which assigns a global
// sequence number and reliably broadcasts the stamped message; members
// deliver in global-sequence order. Publishers retransmit unstamped
// requests until they observe their own message sequenced, so the
// protocol tolerates loss of both requests and stamped broadcasts; it
// does not tolerate sequencer crash (sequencer election is outside the
// paper's scope).
//
// The class is interest-aware through a Planner installed on the
// sequencer: filtering happens strictly AFTER stamping, so the global
// sequence is assigned to every publication and stays gap-free at every
// member. Stamped data frames go only to interested destinations;
// everyone else learns the covered range from the SkipFrom carried on
// the next frame they do receive, from a periodic flush skip marker, or
// — for an uninterested origin — from an immediate targeted skip
// carrying the message ID (which also stops the origin's request
// retransmission). A Planner returning ok=false fails open to a full
// broadcast.
type Total struct {
	mux       *Mux
	stream    string // sequencing-request stream
	self      string
	sequencer string
	opts      Options
	inner     *Reliable
	deliver   Deliver
	lc        *lifecycle

	mu       sync.Mutex
	planner  Planner           // sequencer: interest filter (nil = broadcast all)
	tracker  *skipTracker      // sequencer: per-destination covered sequences
	observer PruneObserver     // optional pruning counters sink
	nextGSeq uint64            // sequencer only
	seenReqs map[string]bool   // sequencer: deduplicated request IDs
	pending  map[string][]byte // own requests not yet seen sequenced: message ID -> request frame
	expected uint64            // next global sequence to deliver
	hold     map[uint64]totalHeld
}

// Planner maps a stamped publication's payload to its interest-pruned
// Sends. ok=false means the payload could not be evaluated; the caller
// fails open to a full broadcast. Called by the sequencer once per
// publication, serialized with stamping.
type Planner func(payload []byte) ([]Send, bool)

// totalHeld is a buffered out-of-order frame: the global-sequence range
// it covers ends at its hold key; skip marks a payload-less marker.
type totalHeld struct {
	origin  string
	from    uint64
	skip    bool
	payload []byte
}

var _ Group = (*Total)(nil)

// NewTotal creates a totally ordered group on the given stream with the
// designated sequencer address (every member must configure the same
// sequencer).
func NewTotal(mux *Mux, stream, sequencer string, deliver Deliver, opts Options) *Total {
	opts = opts.withDefaults()
	g := &Total{
		mux:       mux,
		stream:    stream + "!ord",
		self:      mux.Addr(),
		sequencer: sequencer,
		opts:      opts,
		deliver:   deliver,
		lc:        newLifecycle(),
		tracker:   newSkipTracker(),
		seenReqs:  make(map[string]bool),
		pending:   make(map[string][]byte),
		expected:  1,
		hold:      make(map[uint64]totalHeld),
	}
	g.inner = NewReliable(mux, stream, g.onInner, opts)
	mux.Handle(g.stream, g.onOrderReq)
	g.lc.goTick(opts.RetransmitInterval, g.retransmitRequests)
	if g.self == sequencer {
		g.lc.goTick(opts.RetransmitInterval, g.flush)
	}
	return g
}

// SetMembers implements Group.
func (g *Total) SetMembers(members []string) {
	g.inner.SetMembers(members)
	g.mu.Lock()
	g.tracker.retain(members)
	g.mu.Unlock()
}

// SetPlanner installs the sequencer-side interest filter. Only the
// sequencer consults it; installing it everywhere is harmless.
func (g *Total) SetPlanner(p Planner) {
	g.mu.Lock()
	g.planner = p
	g.mu.Unlock()
}

// SetPruneObserver installs the pruning-counters sink.
func (g *Total) SetPruneObserver(obs PruneObserver) {
	g.mu.Lock()
	g.observer = obs
	g.mu.Unlock()
}

// Broadcast implements Group.
func (g *Total) Broadcast(payload []byte) error {
	if g.lc.closed() {
		return fmt.Errorf("multicast: total %s: closed", g.stream)
	}
	id := codec.NewID()
	if g.self == g.sequencer {
		return g.sequence(id, g.self, payload)
	}
	req, err := frameMessage(g.stream, &message{Kind: kindOrderReq, Origin: g.self, ID: id, Payload: payload})
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.pending[id] = req
	g.mu.Unlock()
	return g.mux.sendFrame(g.sequencer, req)
}

// Close implements Group.
func (g *Total) Close() error {
	g.mux.Unhandle(g.stream)
	g.lc.close()
	return g.inner.Close()
}

// sequence stamps a message with the next global sequence number and
// disseminates it: a full reliable broadcast without a planner, an
// interest-pruned split with one. Sequencer only.
func (g *Total) sequence(id, origin string, payload []byte) error {
	g.mu.Lock()
	if g.seenReqs[id] {
		g.mu.Unlock()
		return nil // duplicate request
	}
	g.seenReqs[id] = true
	planner := g.planner
	g.mu.Unlock()

	if planner == nil {
		g.mu.Lock()
		g.nextGSeq++
		gseq := g.nextGSeq
		g.mu.Unlock()
		wire, err := encodeMessage(&message{Kind: kindData, Origin: origin, GSeq: gseq, ID: id, Payload: payload})
		if err != nil {
			return err
		}
		return g.inner.Broadcast(wire)
	}

	// Plan before stamping (the plan does not depend on the sequence
	// number); fail open to a full broadcast on an unevaluable payload.
	sends, ok := planner(payload)
	if !ok {
		sends = []Send{{Dests: g.inner.members.snapshot(), Payload: payload}}
	}

	type frame struct {
		dests []string
		wire  []byte
	}
	var frames []frame
	var originSkips uint64
	sent := 0
	originSent := false

	// Stamping and skip-tracker bookkeeping are one critical section:
	// ranges handed to destinations must be assigned in global-sequence
	// order to stay contiguous.
	g.mu.Lock()
	g.nextGSeq++
	gseq := g.nextGSeq
	g.tracker.mark(gseq)
	for _, s := range sends {
		sent += len(s.Dests)
		for _, d := range s.Dests {
			if d == origin {
				originSent = true
			}
		}
		for from, dests := range g.tracker.advance(s.Dests, gseq) {
			wire, err := encodeMessage(&message{Kind: kindData, Origin: origin, GSeq: gseq, SkipFrom: from, ID: id, Payload: s.Payload})
			if err != nil {
				g.mu.Unlock()
				return err
			}
			frames = append(frames, frame{dests: dests, wire: wire})
		}
	}
	if !originSent {
		// The origin is not interested in its own publication: send it a
		// stamped skip carrying the message ID immediately, so its
		// pending-request retransmission stops.
		for from, dests := range g.tracker.advance([]string{origin}, gseq) {
			wire, err := encodeMessage(&message{Kind: kindSkip, GSeq: gseq, SkipFrom: from, ID: id})
			if err != nil {
				break
			}
			frames = append(frames, frame{dests: dests, wire: wire})
			originSkips++
		}
	}
	pruned := len(g.inner.members.snapshot()) - sent
	obs := g.observer
	g.mu.Unlock()

	if obs != nil && (pruned > 0 || originSkips > 0) {
		if pruned < 0 {
			pruned = 0
		}
		obs(uint64(pruned), originSkips)
	}
	for _, f := range frames {
		if err := g.inner.BroadcastTo(f.dests, f.wire); err != nil {
			return err
		}
	}
	return nil
}

// flush ships stamped skip markers to every destination trailing the
// sequencer's head, keeping the global sequence gap-free at members no
// recent publication was sent to. Sequencer only.
func (g *Total) flush() {
	type frame struct {
		dests []string
		wire  []byte
	}
	var frames []frame
	var skips uint64
	g.mu.Lock()
	head := g.tracker.head
	for from, dests := range g.tracker.lagging(g.inner.members.snapshot()) {
		wire, err := encodeMessage(&message{Kind: kindSkip, GSeq: head, SkipFrom: from})
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

// onOrderReq handles sequencing requests (sequencer only; other nodes
// never receive on this stream).
func (g *Total) onOrderReq(_ string, data []byte) {
	if g.self != g.sequencer {
		return
	}
	var m message
	if err := decodeMessage(data, &m); err != nil || m.Kind != kindOrderReq {
		return
	}
	_ = g.sequence(m.ID, m.Origin, m.Payload)
}

// retransmitRequests resends sequencing requests not yet observed as
// stamped broadcasts.
func (g *Total) retransmitRequests() {
	g.mu.Lock()
	reqs := make([][]byte, 0, len(g.pending))
	for _, req := range g.pending {
		reqs = append(reqs, req)
	}
	g.mu.Unlock()
	for _, req := range reqs {
		_ = g.mux.sendFrame(g.sequencer, req)
	}
}

// onInner receives stamped frames from the sequencer's reliable
// broadcast and releases them in global-sequence order. A frame is
// consumable once the range it covers reaches the expected sequence;
// everything in the range below its top was deliberately skipped for
// this node. Runs on the inner group's single delivery goroutine.
func (g *Total) onInner(_ string, data []byte) {
	var m message
	if err := decodeMessage(data, &m); err != nil || (m.Kind != kindData && m.Kind != kindSkip) || m.GSeq == 0 {
		return
	}
	h := totalHeld{
		origin:  m.Origin,
		from:    coveredFrom(m.SkipFrom, m.GSeq),
		skip:    m.Kind == kindSkip,
		payload: m.Payload,
	}

	var ready []totalHeld
	g.mu.Lock()
	if m.ID != "" {
		delete(g.pending, m.ID) // our own request has been sequenced
	}
	switch {
	case m.GSeq < g.expected:
		// Entirely below the expected sequence: already covered.
	case h.from <= g.expected:
		if !h.skip {
			ready = append(ready, h)
		}
		g.expected = m.GSeq + 1
		ready = g.drainLocked(ready)
	default:
		g.hold[m.GSeq] = h
	}
	g.mu.Unlock()

	for _, r := range ready {
		g.deliver(r.origin, r.payload)
	}
}

// drainLocked releases buffered frames whose covered range now reaches
// the expected global sequence. The sequencer emits disjoint contiguous
// ranges per destination, so at most one held frame is consumable at a
// time; the scan repeats until a fixpoint. Caller holds g.mu.
func (g *Total) drainLocked(ready []totalHeld) []totalHeld {
	for {
		progress := false
		for top, h := range g.hold {
			switch {
			case top < g.expected:
				delete(g.hold, top)
				progress = true
			case h.from <= g.expected:
				delete(g.hold, top)
				if !h.skip {
					ready = append(ready, h)
				}
				g.expected = top + 1
				progress = true
			}
		}
		if !progress {
			return ready
		}
	}
}
