package multicast

import "sync"

// FIFO layers publisher-side ordering on top of Reliable: two obvents
// published through the same publisher are delivered to every member in
// publication order (paper §3.1.2, FIFO ordered obvents). Messages from
// different publishers are not ordered relative to each other.
//
// The class is interest-aware: BroadcastSplit ships data frames only to
// the destinations the publisher's routing plane marks interested, and
// every frame carries the per-destination sequence range it covers
// (SkipFrom..Seq), so a destination that was pruned for a while
// consumes the gap from the next frame it does receive. Destinations
// pruned with no follow-up data get lightweight skip markers on a
// periodic flush, keeping per-origin sequences gap-free everywhere
// without payload transfer.
type FIFO struct {
	inner   *Reliable
	deliver Deliver
	lc      *lifecycle

	mu       sync.Mutex
	nextSeq  uint64                          // local publication counter
	tracker  *skipTracker                    // per-destination covered sequences
	observer PruneObserver                   // optional pruning counters sink
	expected map[string]uint64               // origin -> next seq to deliver
	hold     map[string]map[uint64]heldFrame // origin -> top seq -> frame
}

// heldFrame is a buffered out-of-order frame: the sequence range it
// covers ends at its hold key; skip marks a payload-less marker.
type heldFrame struct {
	from    uint64
	skip    bool
	payload []byte
}

var _ Group = (*FIFO)(nil)

// NewFIFO creates a FIFO-ordered group on the given stream.
func NewFIFO(mux *Mux, stream string, deliver Deliver, opts Options) *FIFO {
	opts = opts.withDefaults()
	g := &FIFO{
		deliver:  deliver,
		lc:       newLifecycle(),
		tracker:  newSkipTracker(),
		expected: make(map[string]uint64),
		hold:     make(map[string]map[uint64]heldFrame),
	}
	g.inner = NewReliable(mux, stream, g.onInner, opts)
	g.lc.goTick(opts.RetransmitInterval, g.flush)
	return g
}

// SetMembers implements Group.
func (g *FIFO) SetMembers(members []string) {
	g.inner.SetMembers(members)
	g.mu.Lock()
	g.tracker.retain(members)
	g.mu.Unlock()
}

// SetPruneObserver installs the pruning-counters sink.
func (g *FIFO) SetPruneObserver(obs PruneObserver) {
	g.mu.Lock()
	g.observer = obs
	g.mu.Unlock()
}

// Broadcast implements Group: an unpruned publication to the whole
// membership (including self).
func (g *FIFO) Broadcast(payload []byte) error {
	return g.BroadcastSplit([]Send{{Dests: append(g.inner.members.others(g.inner.self), g.inner.self), Payload: payload}})
}

// BroadcastSplit publishes one event under a single FIFO sequence
// number, shipping each Send's payload variant to its destinations
// only. Destinations of no Send receive nothing now; their sequence
// hole is healed by the range carried on the next data frame they do
// receive, or by a skip marker at the next flush tick.
func (g *FIFO) BroadcastSplit(sends []Send) error {
	type frame struct {
		dests []string
		wire  []byte
	}
	var frames []frame
	sent := 0
	g.mu.Lock()
	g.nextSeq++
	seq := g.nextSeq
	g.tracker.mark(seq)
	for _, s := range sends {
		sent += len(s.Dests)
		for from, dests := range g.tracker.advance(s.Dests, seq) {
			wire, err := encodeMessage(&message{Kind: kindData, Seq: seq, SkipFrom: from, Payload: s.Payload})
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

// flush ships skip markers to every destination trailing the head —
// including the local node, whose holder consumes the marker through
// the ordinary local delivery path. Marker frames ride the reliable
// inner layer, so loss and reordering are already handled.
func (g *FIFO) flush() {
	type frame struct {
		dests []string
		wire  []byte
	}
	var frames []frame
	var skips uint64
	g.mu.Lock()
	head := g.tracker.head
	for from, dests := range g.tracker.lagging(g.inner.members.snapshot()) {
		wire, err := encodeMessage(&message{Kind: kindSkip, Seq: head, SkipFrom: from})
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
func (g *FIFO) Close() error {
	g.lc.close()
	return g.inner.Close()
}

// onInner receives reliably-delivered frames and releases them in
// per-origin sequence order. A frame is consumable once the range it
// covers reaches the expected sequence; everything in the range below
// its top was deliberately skipped for this node and is simply stepped
// over.
func (g *FIFO) onInner(origin string, data []byte) {
	var m message
	if err := decodeMessage(data, &m); err != nil || (m.Kind != kindData && m.Kind != kindSkip) {
		return
	}
	from := coveredFrom(m.SkipFrom, m.Seq)
	f := heldFrame{from: from, skip: m.Kind == kindSkip, payload: m.Payload}

	var ready [][]byte
	g.mu.Lock()
	if _, ok := g.expected[origin]; !ok {
		g.expected[origin] = 1
	}
	switch exp := g.expected[origin]; {
	case m.Seq < exp:
		// Entirely below the expected sequence: already covered.
	case from <= exp:
		if !f.skip {
			ready = append(ready, f.payload)
		}
		g.expected[origin] = m.Seq + 1
		ready = g.drainLocked(origin, ready)
	default:
		if g.hold[origin] == nil {
			g.hold[origin] = make(map[uint64]heldFrame)
		}
		g.hold[origin][m.Seq] = f
	}
	g.mu.Unlock()

	for _, p := range ready {
		g.deliver(origin, p)
	}
}

// drainLocked releases buffered frames whose covered range now reaches
// the expected sequence. Per destination the publisher emits disjoint
// contiguous ranges, so at most one held frame is consumable at a time
// and delivery order is deterministic; the scan repeats until a
// fixpoint. Caller holds g.mu.
func (g *FIFO) drainLocked(origin string, ready [][]byte) [][]byte {
	q := g.hold[origin]
	for {
		progress := false
		for top, f := range q {
			exp := g.expected[origin]
			switch {
			case top < exp:
				delete(q, top)
				progress = true
			case f.from <= exp:
				delete(q, top)
				if !f.skip {
					ready = append(ready, f.payload)
				}
				g.expected[origin] = top + 1
				progress = true
			}
		}
		if !progress {
			return ready
		}
	}
}
