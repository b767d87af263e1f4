package multicast

import (
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"
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

// queuedMsg is one delivery owed to a group's upcall.
type queuedMsg struct {
	origin  string
	payload []byte
}

// releaseList is what a group has released and not yet delivered. The
// group adds to it under the lock that orders its releases, and the
// goroutine that added runs it once it holds no lock: whoever finds
// nobody delivering calls Deliver, one item at a time and in add order,
// until the list is empty, and any other caller returns at once. Deliver
// keeps its contract with no goroutine or queue of the group's own, and
// a Deliver that broadcasts to its own node (§5.3: obvents publish
// obvents) leaves its delivery to the loop it is in. The runner delivers
// whatever is listed, so a caller holding a lock that Deliver takes
// must not run the list: a broadcast runs it only when it added a
// delivery for this node.
type releaseList struct {
	deliver Deliver

	mu      sync.Mutex
	idle    sync.Cond // a runner stopped
	items   []queuedMsg
	spare   []queuedMsg // the batch emptied last, kept for its capacity
	running bool
	paused  atomic.Bool // written under mu; the runner reads it between deliveries
	closed  bool
}

func newReleaseList(deliver Deliver) *releaseList {
	r := &releaseList{deliver: deliver}
	r.idle.L = &r.mu
	return r
}

// add lists a delivery. It never blocks; after close it drops.
func (r *releaseList) add(origin string, payload []byte) {
	r.mu.Lock()
	if !r.closed {
		r.items = append(r.items, queuedMsg{origin: origin, payload: payload})
	}
	r.mu.Unlock()
}

// run delivers the list until it is empty or paused, unless another
// goroutine is delivering it.
func (r *releaseList) run() {
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return
	}
	r.running = true
	for len(r.items) > 0 && !r.paused.Load() {
		// Take the whole list and leave add the batch emptied the time
		// before: the two arrays keep their capacity, and no delivered
		// item stays reachable.
		batch := r.items
		r.items, r.spare = r.spare, nil
		r.mu.Unlock()
		i := 0
		for ; i < len(batch) && !r.paused.Load(); i++ {
			r.deliver(batch[i].origin, batch[i].payload)
			batch[i] = queuedMsg{}
		}
		r.mu.Lock()
		if i < len(batch) { // paused: the rest goes back in front
			r.items = append(slices.Clone(batch[i:]), r.items...)
			clear(batch[i:])
		}
		r.spare = batch[:0]
	}
	r.running = false
	r.idle.Broadcast()
	r.mu.Unlock()
}

// pause holds every delivery after the one in progress; adds go on.
func (r *releaseList) pause() {
	r.mu.Lock()
	r.paused.Store(true)
	r.mu.Unlock()
}

// resume ends a pause and delivers the backlog on the caller.
func (r *releaseList) resume() {
	r.mu.Lock()
	r.paused.Store(false)
	r.mu.Unlock()
	r.run()
}

// close delivers what is left, a paused backlog included, waits out a
// runner on another goroutine, and drops every later add.
func (r *releaseList) close() {
	r.mu.Lock()
	r.closed = true
	r.paused.Store(false)
	r.mu.Unlock()
	r.run()
	r.mu.Lock()
	for r.running {
		r.idle.Wait()
	}
	r.mu.Unlock()
}

// lifecycle manages the background-goroutine shutdown of a protocol.
type lifecycle struct {
	once sync.Once
	done chan struct{}
	wg   sync.WaitGroup
}

func newLifecycle() *lifecycle {
	return &lifecycle{done: make(chan struct{})}
}

// goTick runs fn every interval until close.
func (l *lifecycle) goTick(interval time.Duration, fn func()) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-l.done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// close stops the background goroutines and waits for them.
func (l *lifecycle) close() {
	l.once.Do(func() { close(l.done) })
	l.wg.Wait()
}

// closed reports whether close has been requested.
func (l *lifecycle) closed() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}
