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
	// unacknowledged messages (Reliable, Certified, Total). Reliable
	// also derives its acknowledgement timer from it (a quarter).
	RetransmitInterval time.Duration
	// GossipPeriod is the interval between gossip rounds.
	GossipPeriod time.Duration
	// GossipFanout is the number of peers gossiped to per round.
	GossipFanout int
	// GossipRounds is the rounds-to-live of a gossiped event.
	GossipRounds int
	// Logger receives protocol diagnostics that have no error-return
	// path (undecodable frames, failed redeliveries). Nil means discard.
	Logger *slog.Logger
}

// Default protocol timing parameters.
const (
	DefaultRetransmitInterval = 20 * time.Millisecond
	DefaultGossipPeriod       = 10 * time.Millisecond
	DefaultGossipFanout       = 3
	DefaultGossipRounds       = 5
)

// withDefaults fills zero fields with defaults.
func (o Options) withDefaults() Options {
	if o.RetransmitInterval == 0 {
		o.RetransmitInterval = DefaultRetransmitInterval
	}
	if o.GossipPeriod == 0 {
		o.GossipPeriod = DefaultGossipPeriod
	}
	if o.GossipFanout == 0 {
		o.GossipFanout = DefaultGossipFanout
	}
	if o.GossipRounds == 0 {
		o.GossipRounds = DefaultGossipRounds
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

// queuedMsg is one pending delivery.
type queuedMsg struct {
	origin  string
	payload []byte
}

// deliveryQueue serializes a group's deliveries on a single goroutine.
// This guarantees per-group delivery order regardless of which transport
// goroutine received the message, and prevents re-entrancy deadlocks when
// a handler publishes from inside a delivery (paper §5.3 explicitly
// allows obvents publishing obvents).
type deliveryQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []queuedMsg
	closed bool
	paused atomic.Bool // written under mu; the drain reads it between deliveries
	wg     sync.WaitGroup
}

// newDeliveryQueue starts the drain goroutine invoking deliver for each
// queued message in order.
func newDeliveryQueue(deliver Deliver) *deliveryQueue {
	q := &deliveryQueue{}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		// The drain takes the whole backlog at once and leaves push the
		// slice it emptied the time before, so the two backing arrays
		// keep their capacity and no consumed item stays reachable.
		var batch []queuedMsg
		for {
			q.mu.Lock()
			for !q.closed && (q.paused.Load() || len(q.items) == 0) {
				q.cond.Wait()
			}
			if len(q.items) == 0 {
				q.mu.Unlock()
				return // closed and drained
			}
			batch, q.items = q.items, batch[:0]
			q.mu.Unlock()
			for i := range batch {
				if q.paused.Load() {
					q.awaitResume()
				}
				deliver(batch[i].origin, batch[i].payload)
				batch[i] = queuedMsg{}
			}
		}
	}()
	return q
}

// awaitResume parks the drain between two deliveries of a batch until
// the pause is released or the queue closes.
func (q *deliveryQueue) awaitResume() {
	q.mu.Lock()
	for q.paused.Load() && !q.closed {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// push enqueues a delivery; it never blocks. Pushes after close are
// dropped.
func (q *deliveryQueue) push(origin string, payload []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, queuedMsg{origin: origin, payload: payload})
	q.cond.Signal()
}

// pause parks the drain goroutine after its current delivery; pushes
// keep accumulating in order. Used to hold live deliveries back while a
// durable subscription replays its backlog.
func (q *deliveryQueue) pause() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.paused.Store(true)
}

// resume releases a pause; the accumulated backlog drains in order.
func (q *deliveryQueue) resume() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.paused.Store(false)
	q.cond.Signal()
}

// close drains remaining items and stops the goroutine. Close overrides
// a pause so shutdown never hangs.
func (q *deliveryQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Signal()
	q.mu.Unlock()
	q.wg.Wait()
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
