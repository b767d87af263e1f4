package core

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"govents/internal/filter"
	"govents/internal/obvent"
	"govents/internal/telemetry"
)

// Subscription is the handle returned by the subscribe primitive (paper
// Figure 3): it uniquely identifies a subscription and controls its
// lifecycle (activate/deactivate, §3.4) and thread semantics (§3.3.5).
// The zero value is not usable; subscriptions are created by Subscribe.
type Subscription struct {
	id       string
	engine   *Engine
	typeName string
	goType   reflect.Type

	remoteFilter *filter.Expr
	localFilter  func(obvent.Obvent) bool
	handler      func(obvent.Obvent)
	// deliveryHandler, when set, is invoked instead of handler and
	// additionally receives the delivery metadata (event ID, concrete
	// class). Durable subscriptions use it to acknowledge exactly the
	// delivered event in their inbox.
	deliveryHandler func(obvent.Obvent, Delivery)
	executor        *executor
	// filterBytes is remoteFilter's canonical wire form, marshaled once at
	// Subscribe (the filter is immutable afterwards). Canonical means
	// semantically identical filters of different subscribers are
	// byte-identical on the wire, so filtering hosts can deduplicate them
	// by bytes alone (routing plan keys).
	filterBytes []byte

	// activated and durableID change together under mu; the dispatch path
	// reads activated lock-free.
	mu        sync.Mutex
	activated atomic.Bool
	durableID string
}

// ID returns the engine-unique subscription identifier.
func (s *Subscription) ID() string { return s.id }

// TypeName returns the wire name of the subscribed type.
func (s *Subscription) TypeName() string { return s.typeName }

// Active reports whether the subscription currently receives obvents.
func (s *Subscription) Active() bool { return s.activated.Load() }

// info snapshots the substrate-visible description.
func (s *Subscription) info() SubscriptionInfo {
	s.mu.Lock()
	durable := s.durableID
	s.mu.Unlock()
	return SubscriptionInfo{
		ID:        s.id,
		TypeName:  s.typeName,
		Filter:    s.filterBytes,
		DurableID: durable,
		Certified: s.certifiedType(),
	}
}

// certifiedType reports whether the subscribed type itself requests
// certified delivery (determinable only for concrete types).
func (s *Subscription) certifiedType() bool {
	if s.goType.Kind() == reflect.Interface {
		return s.goType.Implements(obvent.TypeOf[obvent.Certified]())
	}
	return reflect.PointerTo(s.goType).Implements(obvent.TypeOf[obvent.Certified]()) ||
		s.goType.Implements(obvent.TypeOf[obvent.Certified]())
}

// Activate starts delivery for this subscription — the effective action
// of subscribing (§3.4.1). Activating an already active subscription
// fails with ErrCannotSubscribe, as the paper specifies.
//
// Activate is not a barrier for envelopes already queued: an envelope is
// matched against the subscription table current when its lane
// dispatches it, not when it arrived, so the subscription may receive
// an event that reached the engine before Activate was called.
func (s *Subscription) Activate() error {
	return s.activate("")
}

// ActivateDurable activates the subscription under a stable durable
// identity, the analog of the paper's activate(long id) used with
// certified obvents: the subscription's lifetime may exceed the hosting
// process, and a recovering process reclaims it by presenting the same
// identity (§3.4.1).
func (s *Subscription) ActivateDurable(durableID string) error {
	if durableID == "" {
		return fmt.Errorf("%w: empty durable id", ErrCannotSubscribe)
	}
	return s.activate(durableID)
}

func (s *Subscription) activate(durableID string) error {
	s.mu.Lock()
	if s.activated.Load() {
		s.mu.Unlock()
		return fmt.Errorf("%w: subscription %s already activated", ErrCannotSubscribe, s.id)
	}
	s.activated.Store(true)
	s.durableID = durableID
	s.mu.Unlock()

	if err := s.engine.subscriptionChanged(s); err != nil {
		s.setInactive()
		return fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
	}
	return nil
}

// Deactivate stops delivery — the action of unsubscribing (§3.4.2).
// Deactivating an inactive subscription fails with ErrCannotUnsubscribe.
// Activation and deactivation can be interleaved an unlimited number of
// times; a deactivated subscription handle stays valid.
//
// Deactivate is not a barrier either: its return guarantees only that no
// dispatch starting afterwards delivers to the subscription. A dispatch
// already under way, and deliveries already handed to the subscription's
// executor, may still run the handler after it returns.
func (s *Subscription) Deactivate() error {
	if !s.setInactive() {
		return fmt.Errorf("%w: subscription %s not active", ErrCannotUnsubscribe, s.id)
	}
	if err := s.engine.subscriptionChanged(s); err != nil {
		return fmt.Errorf("%w: %w", ErrCannotUnsubscribe, err)
	}
	return nil
}

// setInactive stops delivery and reports whether the subscription was
// active; the caller owes the engine a subscriptionChanged.
func (s *Subscription) setInactive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activated.CompareAndSwap(true, false)
}

// SetSingleThreading makes the handler process at most one obvent at a
// time (paper §3.3.5): a queued obvent waits until every handler already
// running has returned.
func (s *Subscription) SetSingleThreading() {
	s.executor.setLimit(1)
}

// SetMultiThreading lets the handler process up to maxNb obvents
// concurrently; maxNb <= 0 means unlimited, the paper's default for
// unordered obvents.
func (s *Subscription) SetMultiThreading(maxNb int) {
	s.executor.setLimit(maxNb)
}

// invoke runs the application handler for one obvent, reporting whether
// it completed. A panicking handler is contained here — on a drainer
// goroutine it would otherwise kill the whole process — counted in the
// engine's HandlerPanics stat, traced, and logged with its stack so the
// crash stays diagnosable (the net/http handler convention); other
// subscriptions' deliveries of the same event are unaffected.
func (s *Subscription) invoke(item submission) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.engine.handlerPanics.Add(1)
			s.engine.tele.Trace(item.id, item.class, telemetry.StageDispatch, 0,
				telemetry.ReasonHandlerPanic.String())
			s.engine.log.Error("recovered panic in obvent handler",
				"subscription", s.id,
				"type", s.typeName,
				"event", item.id,
				"panic", r,
				"stack", string(debug.Stack()))
		}
	}()
	if s.deliveryHandler != nil {
		s.deliveryHandler(item.o, Delivery{EventID: item.id, Class: item.class})
	} else {
		s.handler(item.o)
	}
	return true
}

// executor runs a subscription's handler according to its thread policy
// (§3.3.5). It owns no goroutine of its own: deliveries wait in an
// unbounded queue, one predicate under mu (admitLocked) decides whether
// the head of the queue may start now, and on-demand drainer goroutines
// pop admissible items and run the handler themselves, so a delivery
// costs one goroutine hop and an idle subscription costs none. At most
// one drainer is ever on its way to the queue (pending): a burst of
// submits cannot raise a storm of cold goroutines. A drainer starts its
// successor just before it enters the handler, so nothing waits behind a
// running handler it is allowed to overtake.
//
// When the engine configures a slow-consumer stall budget, the executor
// additionally watches its own progress: a handler that has been running
// past the budget without completing anything, while deliveries queue
// behind it, quarantines the subscription — its queue becomes a bounded
// mailbox (overflow drops are counted as slow-consumer drops, never
// blocking the dispatch lane) and execution serializes until the handler
// makes progress again. One wedged subscriber can therefore never
// head-of-line-block the lane, the engine, or — via the close-abandon
// path below — shutdown.
type executor struct {
	run     func(submission) bool // reports whether the handler completed
	drainFn func()                // x.drain, bound once: `go x.drainFn()` allocates nothing
	tele    *telemetry.Plane

	// Slow-consumer isolation (quarantine) configuration: a zero
	// stallBudget disables it and every probe short-circuits.
	stallBudget time.Duration
	mailbox     int
	counters    *overloadCounters

	mu      sync.Mutex
	queue   []submission // live items are queue[head:]
	head    int
	limit   int // 0 = unlimited, 1 = single, n = bounded
	closed  bool
	active  int           // handlers running now
	serial  bool          // one of them must run with nothing started beside it
	pending bool          // a drainer is started and has not reached the queue yet
	idle    chan struct{} // close's wait: closed when active == 0 && !pending

	// quarantined is the isolation state; transitions happen under mu,
	// reads may be lock-free.
	quarantined atomic.Bool

	// Stall detection, maintained only with a stallBudget: the monotonic
	// time the current busy era began (active went 0→1) and the monotonic
	// time of the last handler completion. A healthy pipelined consumer
	// keeps lastDone fresh no matter how old its era is.
	eraStart int64
	lastDone int64
}

// overloadCounters are the engine-wide slow-consumer accounting shared
// by every executor of an engine.
type overloadCounters struct {
	slowDrops   atomic.Uint64
	quarantines atomic.Uint64
}

// submitStatus is the outcome of an executor submit.
type submitStatus int

const (
	submitOK submitStatus = iota
	// submitClosed: the executor was already closed (shutdown race).
	submitClosed
	// submitShed: the quarantined consumer's bounded mailbox was full;
	// the delivery was dropped for this subscription only.
	submitShed
)

// defaultQuarantineMailbox bounds a quarantined consumer's queue when
// the engine enables a stall budget without choosing a mailbox size.
const defaultQuarantineMailbox = 1024

// submission is one queued delivery; ordered deliveries bypass the
// thread policy and run alone, in submit order, because "multi-
// threading ... [is] assumed by default, except in the case of ordered
// obvents" (paper §3.3.5). The telemetry context rides the submission —
// never the envelope or the clone — so handler-return timing can close
// the dequeue→handler and end-to-end spans: deq is the lane's dequeue
// timestamp (0 when telemetry was off), pub the publisher's wall-clock
// UnixNano stamp (0 when the envelope carries none), id/class the
// envelope identity for trace spans. prio orders the queue (submit).
type submission struct {
	o       obvent.Obvent
	ordered bool
	prio    int
	deq     int64
	pub     int64
	id      string
	class   string
}

func newExecutor(run func(submission) bool, tele *telemetry.Plane, stallBudget time.Duration, mailbox int, counters *overloadCounters) *executor {
	if stallBudget > 0 && mailbox <= 0 {
		mailbox = defaultQuarantineMailbox
	}
	x := &executor{run: run, tele: tele, stallBudget: stallBudget, mailbox: mailbox, counters: counters}
	x.drainFn = x.drain
	return x
}

// setLimit changes the thread policy and re-examines the queue at once:
// a wider limit may admit items that were waiting.
func (x *executor) setLimit(n int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.limit = max(n, 0)
	x.kickLocked()
}

// submit enqueues one delivery; the status reports when the executor is
// already closed (the obvent will never reach the handler, so the
// engine's delivery counters stay truthful during shutdown) or when the
// quarantined consumer's bounded mailbox overflowed. It queues s behind
// the last delivery of at least its priority: with every priority 0,
// at the tail.
func (x *executor) submit(s *submission) submitStatus {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return submitClosed
	}
	if x.stallBudget > 0 {
		queued := len(x.queue) - x.head
		if !x.quarantined.Load() && queued > 0 && x.stalledLocked(telemetry.Now()) {
			x.quarantined.Store(true)
			x.counters.quarantines.Add(1)
		}
		if x.quarantined.Load() && queued >= x.mailbox {
			x.counters.slowDrops.Add(1)
			return submitShed
		}
	}
	if x.head > len(x.queue)/2 {
		// Reuse the popped prefix: a queue that never quite empties must
		// not creep through memory. Fewer items move than were popped
		// since the last move, so the cost stays constant per delivery.
		n := copy(x.queue, x.queue[x.head:])
		clear(x.queue[n:])
		x.queue, x.head = x.queue[:n], 0
	}
	x.queue = append(x.queue, *s)
	for i := len(x.queue) - 1; i > x.head && x.queue[i-1].prio < s.prio; i-- {
		x.queue[i-1], x.queue[i] = x.queue[i], x.queue[i-1]
	}
	x.kickLocked()
	return submitOK
}

// stalledLocked reports whether the handler is wedged: work is running,
// the busy era started longer than the stall budget ago, and nothing has
// completed within the budget either. A healthy consumer fails the
// lastDone check.
func (x *executor) stalledLocked(now int64) bool {
	budget := int64(x.stallBudget)
	return x.active > 0 && now-x.eraStart > budget && now-x.lastDone > budget
}

// admitLocked is the whole thread policy: may the head of the queue
// start now? Up to limit handlers run at once; an ordered delivery
// starts only with nothing running, and nothing starts beside a serial
// one (see drain).
func (x *executor) admitLocked() bool {
	switch {
	case x.head == len(x.queue) || x.serial:
		return false
	case x.queue[x.head].ordered:
		return x.active == 0
	}
	return x.limit == 0 || x.active < x.limit
}

// kickLocked starts a drainer if the head of the queue is admissible and
// none is already on its way.
func (x *executor) kickLocked() {
	if !x.pending && x.admitLocked() {
		x.pending = true
		go x.drainFn()
	}
}

// drain runs admissible deliveries on this goroutine until none is left.
func (x *executor) drain() {
	x.mu.Lock()
	x.pending = false
	for x.admitLocked() {
		item := x.queue[x.head]
		x.queue[x.head] = submission{} // do not pin the obvent for the GC
		if x.head++; x.head == len(x.queue) {
			x.queue, x.head = x.queue[:0], 0
		}
		// Ordered deliveries run alone. So do a quarantined consumer's:
		// more goroutines at a handler that finishes nothing would only
		// grow the leak.
		serial := item.ordered || x.quarantined.Load()
		x.serial = serial
		if x.active++; x.active == 1 && x.stallBudget > 0 {
			x.eraStart = telemetry.Now()
		}
		x.kickLocked()
		x.mu.Unlock()
		x.finish(item, x.run(item))
		x.mu.Lock()
		x.active--
		if serial {
			x.serial = false
		}
		if x.stallBudget > 0 {
			x.lastDone = telemetry.Now()
			// A completion is progress: release the quarantine once the
			// mailbox has drained to half, so recovery has headroom before
			// the next overflow.
			if x.quarantined.Load() && len(x.queue)-x.head <= x.mailbox/2 {
				x.quarantined.Store(false)
			}
		}
	}
	if x.idle != nil && x.active == 0 && !x.pending {
		close(x.idle)
		x.idle = nil
	}
	x.mu.Unlock()
}

// finish closes one delivery's telemetry spans after the handler
// returned: the dequeue→handler-return stage timed against the lane's
// dequeue stamp, the cross-node end-to-end stage timed against the
// envelope's publish stamp (wall clock; negative skew clamps to zero;
// absent means no e2e sample), and a sampled
// delivered trace span. The no-telemetry path costs two integer field
// checks plus one atomic load.
func (x *executor) finish(item submission, ok bool) {
	p := x.tele
	if p == nil || !ok {
		return // a panic outcome already traced and counted in invoke
	}
	var dispatchNS, e2eNS int64 = -1, -1
	if item.deq != 0 {
		dispatchNS = telemetry.Now() - item.deq
		p.Record(uint32(item.deq), telemetry.StageDispatch, dispatchNS)
	}
	if item.pub > 0 && p.Enabled() {
		e2eNS = time.Now().UnixNano() - item.pub
		if e2eNS < 0 {
			e2eNS = 0
		}
		p.Record(uint32(item.pub), telemetry.StageE2E, e2eNS)
	}
	if p.TraceEnabled() {
		if e2eNS >= 0 {
			p.Trace(item.id, item.class, telemetry.StageE2E, e2eNS, telemetry.OutcomeDelivered)
		} else {
			p.Trace(item.id, item.class, telemetry.StageDispatch, dispatchNS, telemetry.OutcomeDelivered)
		}
	}
}

// close refuses further submits and returns once the queue has drained:
// no handler running, no drainer pending — unless the consumer is provably
// stalled past its budget, in which case close abandons it instead of
// hanging the engine's shutdown on a wedged handler. A handler may also have
// wedged too recently for the probe to prove it, so with isolation
// enabled shutdown waits at most two budgets. An abandoned drainer
// finishes the remaining queue and exits on its own whenever the handler
// finally returns, so nothing leaks beyond the handler's own lifetime.
func (x *executor) close() {
	x.mu.Lock()
	x.closed = true
	if (x.active == 0 && !x.pending) || (x.stallBudget > 0 && x.stalledLocked(telemetry.Now())) {
		x.mu.Unlock()
		return
	}
	if x.idle == nil {
		x.idle = make(chan struct{})
	}
	idle := x.idle
	x.mu.Unlock()
	var abandon <-chan time.Time // nil without a budget: wait for good
	if x.stallBudget > 0 {
		abandon = time.After(2 * x.stallBudget)
	}
	select {
	case <-idle:
	case <-abandon:
	}
}
