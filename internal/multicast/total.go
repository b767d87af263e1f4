package multicast

import "sync"

// Total implements totally ordered broadcast with a fixed sequencer: all
// members deliver all messages in the same (subscriber-side) order, the
// paper's TotalOrder delivery semantics (§3.1.2).
//
// It is two reliable links and no numbering of its own. A publication
// travels to the sequencer over one link (exactly once and in the
// publisher's order, so there is no request to identify, deduplicate or
// resend); the sequencer broadcasts it over the other, naming the
// publisher on the frame. The global order is the order in which the
// sequencer's broadcasts take their place on its links: Reliable assigns
// every destination's link sequence, and the sequencer's own delivery,
// in one critical section per broadcast, and every member releases in
// link order, so each member sees a subsequence of the one order. The
// protocol tolerates loss of both requests and stamped broadcasts; it
// does not tolerate sequencer crash (sequencer election is outside the
// paper's scope).
//
// The class is interest-aware through a Planner installed on the
// sequencer: stamped frames go only to interested destinations, and a
// destination that was pruned consumed no link sequence, so it waits
// for nothing. A Planner returning ok=false fails open to a full
// broadcast.
type Total struct {
	self      string
	sequencer string
	req       *Reliable // publications, publisher → sequencer
	inner     *Reliable // stamped broadcasts, sequencer → members

	mu      sync.Mutex
	planner Planner // sequencer: interest filter (nil = broadcast all)
}

// Planner maps a publication's payload to its interest-pruned Sends.
// ok=false means the payload could not be evaluated; the caller fails
// open to a full broadcast. Called by the sequencer once per
// publication, from the goroutine that publishes or the one that
// delivers requests: it must be safe for concurrent use.
type Planner func(payload []byte) ([]Send, bool)

var _ Group = (*Total)(nil)

// NewTotal creates a totally ordered group on the given stream with the
// designated sequencer address (every member must configure the same
// sequencer). Requests travel on the stream's "!ord" companion.
func NewTotal[U Upcall](mux *Mux, stream, sequencer string, deliver U, opts Options) *Total {
	g := &Total{self: mux.Addr(), sequencer: sequencer}
	g.inner = NewReliable(mux, stream, deliver, opts)
	g.req = NewReliable(mux, stream+"!ord", g.onRequest, opts)
	return g
}

// NextName implements Group. A publication reaches the members relayed
// by the sequencer, whose link does not name this node's incarnation: a
// record carries it.
func (g *Total) NextName() (inc, n uint64) { return g.inner.NextName() }

// SetMembers implements Group. The sequencer must be a member, or
// requests to it are dropped as owed to nobody.
func (g *Total) SetMembers(members []string) {
	g.inner.SetMembers(members)
	g.req.SetMembers(members)
}

// SetPlanner installs the sequencer-side interest filter. Only the
// sequencer consults it; installing it everywhere is harmless.
func (g *Total) SetPlanner(p Planner) {
	g.mu.Lock()
	g.planner = p
	g.mu.Unlock()
}

// SetPruneObserver installs the pruning-counters sink (the sequencer
// is where total order prunes).
func (g *Total) SetPruneObserver(obs PruneObserver) { g.inner.SetPruneObserver(obs) }

// Broadcast implements Group. Away from the sequencer, a payload the
// sequencer's frame, which names this node as its origin, could not
// carry is refused here: the request link would deliver it to a
// sequencer that cannot send it on. At the sequencer, stamp checks the
// frames it sends.
func (g *Total) Broadcast(payload []byte) error {
	if g.self == g.sequencer {
		return g.sequence(g.self, payload)
	}
	if err := g.inner.fits(g.self, payload); err != nil {
		return err
	}
	return g.req.BroadcastTo([]string{g.sequencer}, payload)
}

// Close implements Group.
func (g *Total) Close() error {
	_ = g.req.Close()
	return g.inner.Close()
}

// onRequest receives a publication at the sequencer (nobody addresses
// one to any other node).
func (g *Total) onRequest(origin string, payload []byte) {
	if g.self == g.sequencer {
		_ = g.sequence(origin, payload)
	}
}

// sequence gives a publication its place in the global order: one
// atomic broadcast, interest-pruned when a planner can evaluate the
// payload and to the whole group otherwise. Sequencer only.
func (g *Total) sequence(origin string, payload []byte) error {
	g.mu.Lock()
	planner := g.planner
	g.mu.Unlock()
	var sends []Send
	ok := false
	if planner != nil {
		sends, ok = planner(payload)
	}
	if !ok {
		sends = []Send{{Dests: append(g.inner.members.others(g.self), g.self), Payload: payload}}
	}
	return g.inner.broadcastAs(origin, sends)
}
