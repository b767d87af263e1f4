package multicast

import (
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"govents/internal/chunk"
	"govents/internal/clock"
)

// Options tune the timing and fault-tolerance parameters shared by the
// protocols. Zero values select the defaults below.
type Options struct {
	// RetransmitInterval is the period between retransmissions of
	// unacknowledged messages (Reliable, and FIFO, Causal, Total and
	// Certified, which run on its link). The link also derives its
	// acknowledgement timer from it (a quarter).
	RetransmitInterval time.Duration
	// Logger receives protocol diagnostics that have no error-return
	// path (undecodable frames, a store's failures). Nil means discard.
	Logger *slog.Logger
	// Clock runs the protocols' timers: the node's one clock. Nil means
	// the wall clock.
	Clock clock.Clock
}

// DefaultRetransmitInterval is RetransmitInterval's default.
const DefaultRetransmitInterval = 20 * time.Millisecond

// withDefaults fills zero fields with defaults.
func (o Options) withDefaults() Options {
	if o.RetransmitInterval == 0 {
		o.RetransmitInterval = DefaultRetransmitInterval
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

// A Send is one slice of an interest-pruned publication: a payload and
// the destinations owed it. The dissemination layer (dace) passes one
// Send per publication, the interested nodes; the slice form lets a
// caller address different payloads to disjoint destination sets as one
// publication: BroadcastSplit places all Sends of a call at one point
// of every link's order.
type Send struct {
	Dests   []string
	Payload []byte
}

// PruneObserver receives the interest-pruning counters of a group:
// prunedSends counts per-destination data frames not sent because the
// destination had no matching subscriber, skipFrames the causal clock
// markers shipped to such destinations instead (one per destination per
// flush tick at most; FIFO and total order need none). Implementations
// must be safe for concurrent use and must not call back into the
// group.
type PruneObserver func(prunedSends, skipFrames uint64)

// membership is the shared mutable member list of a group.
type membership struct {
	mu      sync.RWMutex
	members []string
}

// set replaces the membership.
func (m *membership) set(members []string) {
	cp := make([]string, len(members))
	copy(cp, members)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members = cp
}

// snapshot returns the current member list (shared slice; callers must
// not mutate).
func (m *membership) snapshot() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.members
}

// has reports whether addr is a member.
func (m *membership) has(addr string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Contains(m.members, addr)
}

// others returns the members excluding self.
func (m *membership) others(self string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.members))
	for _, addr := range m.members {
		if addr != self {
			out = append(out, addr)
		}
	}
	return out
}

// queuedMsg is one delivery owed to a group's upcall: its origin and
// the epoch of origin's group (DeliverFrom), and its payload, lent by the
// caller that lists it (kept nil) or the list's own copy (kept, its
// chunk).
type queuedMsg struct {
	origin  string
	epoch   uint64
	payload []byte
	kept    *chunk.Chunk
}

// releaseList is what a group has released and not yet delivered. The
// group lists deliveries (post) under the lock that orders its
// releases, and the goroutine that posted runs the list (run) once it
// holds no lock, if post found nobody delivering: it calls Deliver, one
// item at a time and in post order, until the list is empty. Deliver
// keeps its contract with no goroutine or queue of the group's own, and
// a Deliver that broadcasts to its own node (§5.3: obvents publish
// obvents) leaves its delivery to the loop it is in. A caller holding a
// lock that Deliver takes must not run the list: a broadcast posts, and
// runs, only a delivery for this node.
//
// A poster lends its payloads for its call only (a transport's frame, a
// publisher's record). The poster that runs the list delivers them
// before its run returns; what any other poster lists, and what a pause
// holds back, the list copies into its store, recycled once delivered.
type releaseList struct {
	deliver DeliverFrom

	mu      sync.Mutex
	idle    sync.Cond // a runner stopped
	items   []queuedMsg
	spare   []queuedMsg // the batch emptied last, kept for its capacity
	running bool        // a poster runs the list, or is about to
	paused  atomic.Bool // written under mu; the runner reads it between deliveries
	closed  bool
	store   chunk.Store // the payloads of items with kept set
}

func newReleaseList[U Upcall](deliver U) *releaseList {
	r := &releaseList{deliver: upcallOf(deliver)}
	r.idle.L = &r.mu
	return r
}

// post lists deliveries in order, and reports whether the caller must
// run the list: nobody was running it and it is not paused, so the
// caller now runs it and delivers what it lent. Otherwise a lent payload
// is copied. After close it drops them.
func (r *releaseList) post(msgs ...queuedMsg) (run bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	run = !r.running && !r.paused.Load()
	for _, m := range msgs {
		if !run && m.kept == nil {
			m.payload, m.kept = r.store.Copy(m.payload)
		}
		r.items = append(r.items, m)
	}
	r.running = r.running || run
	return run
}

// keep copies a payload its group holds past the call that lent it into
// the list's store: post takes the copy over, or release gives it back.
func (r *releaseList) keep(payload []byte) ([]byte, *chunk.Chunk) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Copy(payload)
}

// release gives back a copy keep made that was not posted.
func (r *releaseList) release(c *chunk.Chunk) {
	if c == nil {
		return
	}
	r.mu.Lock()
	r.store.Release(c)
	r.mu.Unlock()
}

// run delivers the list until it is empty or paused. Only the caller
// post told to, or one that claimed the list (claim), calls it.
func (r *releaseList) run() {
	r.mu.Lock()
	for len(r.items) > 0 && !r.paused.Load() {
		// Take the whole list and leave post the batch emptied the time
		// before: the two arrays keep their capacity, and no delivered
		// item stays reachable.
		batch := r.items
		r.items, r.spare = r.spare, nil
		r.mu.Unlock()
		i := 0
		for ; i < len(batch) && !r.paused.Load(); i++ {
			r.deliver(batch[i].origin, batch[i].epoch, batch[i].payload)
		}
		r.mu.Lock()
		for _, m := range batch[:i] {
			r.store.Release(m.kept)
		}
		if i < len(batch) { // paused: the rest goes back in front
			r.items = append(slices.Clone(batch[i:]), r.items...)
		}
		clear(batch)
		r.spare = batch[:0]
	}
	// Paused, before or while it ran: what this runner lent (nobody else
	// lends while it runs) is copied, since it returns before resume
	// delivers it.
	for j := range r.items {
		if m := &r.items[j]; m.kept == nil {
			m.payload, m.kept = r.store.Copy(m.payload)
		}
	}
	r.running = false
	r.idle.Broadcast()
	r.mu.Unlock()
}

// claim makes the caller the runner unless somebody runs the list.
func (r *releaseList) claim() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	run := !r.running
	r.running = true
	return run
}

// pause holds every delivery after the one in progress; posts go on.
func (r *releaseList) pause() {
	r.mu.Lock()
	r.paused.Store(true)
	r.mu.Unlock()
}

// resume ends a pause and delivers the backlog on the caller, unless a
// runner that has not stopped yet delivers it.
func (r *releaseList) resume() {
	r.mu.Lock()
	r.paused.Store(false)
	r.mu.Unlock()
	if r.claim() {
		r.run()
	}
}

// close delivers what is left, a paused backlog included, waits out a
// runner on another goroutine, and drops every later post.
func (r *releaseList) close() {
	r.mu.Lock()
	r.closed = true
	r.paused.Store(false)
	r.mu.Unlock()
	if r.claim() {
		r.run()
	}
	r.mu.Lock()
	for r.running {
		r.idle.Wait()
	}
	r.mu.Unlock()
}
