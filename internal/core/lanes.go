package core

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"govents/internal/codec"
	"govents/internal/obvent"
	"govents/internal/telemetry"
)

// This file implements the engine's sharded multi-lane dispatcher.
//
// The paper's transmission semantics (§3.1.2) only constrain delivery
// order for obvents whose type requests ordering (FIFO/Causal/Total) or
// priority. FIFO needs only *per-publisher* order, which the parallel
// lanes already provide (one publisher's envelopes always share a lane),
// so FIFO traffic fans out with the unordered traffic; only the
// semantics that need a single global arrival order — Causal, Total and
// Prioritary — share the strictly serial lane:
//
//	              ┌► lane{priorityOrder}               ── causal/total/prioritary
//	deliver ─► route
//	              └► lane{arrivalOrder}[hash(pub) % N] ── FIFO + everything else
//
// Both are the one lane type below: it owns the lock, the bound, the
// overload policies, the spill log, the drain loop, its depth counters
// and the lane_wait timing, and is parameterised only by the order its
// queue pops in (laneOrder).
//
// Routing rules, in order:
//
//   - env.HasPriority, or env.Ordering stronger than FIFO (stamped by
//     the publishing codec) → serial lane. The heap preserves
//     Prioritary-overtaking behavior exactly; ordered envelopes share
//     priority 0 and therefore drain in arrival order.
//   - env.Ordering == FIFO → parallel lane by publisher hash: the lane
//     is FIFO per publisher, which is the whole FIFO contract.
//   - the envelope's class resolves (Registry.ClassSemantics, a cached
//     lock-free lookup — never a decode) to a stronger-than-FIFO
//     ordering or priority → serial lane. This catches peers that
//     forgot to stamp the wire metadata.
//   - otherwise → parallel lane chosen by hashing the publisher ID (the
//     publication ID when there is none), so one publisher's envelopes
//     always share a lane and per-publisher arrival order stays stable.
//
// Every lane may be bounded (laneConfig.bound); a full lane applies the
// engine's OverloadPolicy. Idle parallel lanes steal whole-publisher
// batches from the hottest sibling (the loan protocol below), so one hot
// publisher no longer pins one lane while the others sleep. What the
// bound counts is the lane's occupancy — its queue plus the arrivals
// waiting in open loan buffers — and occupancyLocked is the one function
// that knows it.
//
// Each lane owns its queue, its dispatchScratch and its dispatchCounters,
// so lanes never contend on dispatch state; Engine.Stats folds the
// per-lane counters, Engine.LaneStats exposes them individually.

// OverloadPolicy selects what a bounded dispatch lane does with new
// arrivals once it is full (its occupancy has reached laneConfig.bound).
// The zero value is OverloadBlock.
type OverloadPolicy int

const (
	// OverloadBlock makes the push wait until the lane drains below its
	// bound (or the lane closes); nothing is lost. The pusher is the
	// goroutine that delivers to the engine, a multicast group's
	// deliveryQueue drain or Local's loop, and the queue it drains never
	// blocks and has no bound: the backlog moves in front of the lane,
	// and no publisher or transport reader slows down.
	OverloadBlock OverloadPolicy = iota
	// OverloadDropOldest sheds the oldest queued envelope to admit the
	// new one. Sheds are counted (DispatchStats.Shed, drop reason
	// "overload_shed"), never silent.
	OverloadDropOldest
	// OverloadSpill overflows to a per-lane durable segment log and
	// drains it once the lane catches up. Arrival order is preserved:
	// while a spill backlog exists every new arrival spills too, so the
	// disk backlog is always older than the memory queue.
	OverloadSpill
)

// String returns the policy's stable diagnostic name.
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadDropOldest:
		return "drop-oldest"
	case OverloadSpill:
		return "spill"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// laneConfig is the per-lane overload configuration, shared by every
// lane of a laneSet.
type laneConfig struct {
	// bound caps each lane's occupancy (queue plus open loan buffers);
	// 0 means unbounded (the default), and then policy never applies.
	bound int
	// policy is applied by a full lane.
	policy OverloadPolicy
	// spillDir hosts the per-lane spill segment logs (OverloadSpill).
	spillDir string
	// spillSeg is the spill segment roll threshold (0 = durable default).
	spillSeg int64
	// logger receives spill failures and drain diagnostics.
	logger *slog.Logger
}

// laneState is one lane's private dispatch working set. The scratch is
// touched only by the lane's goroutine; the counters are atomic so
// Stats() can read them live.
type laneState struct {
	scratch  dispatchScratch
	counters dispatchCounters
	enqueued atomic.Uint64
	// deq is the telemetry dequeue timestamp of the envelope currently
	// being dispatched on this lane (0 when telemetry is off). Written
	// by the lane goroutine before each dispatch; dispatch threads it
	// into executor submissions so handler-return timing can close the
	// dequeue→handler span.
	deq int64
}

// LaneStat is one dispatch lane's observable state (Engine.LaneStats).
type LaneStat struct {
	// Lane is the parallel lane index; -1 identifies the serial lane.
	Lane int
	// Serial reports whether this is the serial (causal/total/prioritary)
	// lane.
	Serial bool
	// Enqueued counts envelopes ever routed to this lane.
	Enqueued uint64
	// Queued is the lane's instantaneous occupancy: everything it owes in
	// memory, its queue plus the arrivals waiting in open loan buffers
	// (publishers a thief lane is draining). It is what Bound bounds; an
	// envelope a thief has in hand is in dispatch, not queued.
	Queued int
	// HighWater is the largest occupancy Queued has reached, read as each
	// arrival is admitted (so it counts the arrival).
	HighWater int
	// Bound is the lane's occupancy bound (0 = unbounded).
	Bound int
	// Policy is the lane's overload policy (meaningful when Bound > 0).
	Policy OverloadPolicy
	// SpillBacklog counts envelopes currently spilled to the lane's
	// overflow segment log and not yet drained.
	SpillBacklog int
	// Stats are the lane's cumulative dispatch counters.
	Stats DispatchStats
}

// laneSet is the engine's dispatcher: one serial priority-ordered lane
// plus N parallel arrival-ordered lanes.
type laneSet struct {
	reg    *obvent.Registry
	cfg    laneConfig
	serial *lane
	par    []*lane
}

func newLaneSet(reg *obvent.Registry, n int, dispatch func(*codec.Envelope, *laneState), tele *telemetry.Plane, cfg laneConfig) *laneSet {
	if n < 1 {
		n = 1
	}
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.DiscardHandler)
	}
	if cfg.bound > 0 && cfg.policy == OverloadSpill && cfg.spillDir == "" {
		// No spill destination: degrade to shedding rather than grow
		// without bound (NewEngine has no error return; the facade
		// validates this at Open).
		cfg.logger.Warn("overload policy spill without a spill directory; degrading to drop-oldest")
		cfg.policy = OverloadDropOldest
	}
	ls := &laneSet{reg: reg, cfg: cfg, par: make([]*lane, n)}
	// The serial lane owns histogram shard (and spill directory) 0 and
	// has no siblings: it neither steals nor lends.
	ls.serial = newLane(priorityOrder, dispatch, tele, 0, cfg, nil)
	for i := range ls.par {
		ls.par[i] = newLane(arrivalOrder, dispatch, tele, i+1, cfg, ls)
	}
	// Start the loops only once every sibling is in par: an idle lane's
	// first act is a steal scan over set.par, which must never observe
	// the slice mid-construction.
	ls.serial.start()
	for _, l := range ls.par {
		l.start()
	}
	return ls
}

// route steers one envelope to its lane. Safe for concurrent use: the
// dissemination substrate may deliver from many goroutines.
func (ls *laneSet) route(env *codec.Envelope) {
	if ls.routeSerial(env) {
		prio := 0
		if env.HasPriority {
			prio = env.Priority
		}
		ls.serial.push(env, "", prio)
		return
	}
	key := laneKey(env)
	ls.par[laneIndex(key, len(ls.par))].push(env, key, 0)
}

// routeSerial is the semantics-aware routing decision. It costs two
// envelope field reads and, for unordered wire metadata, one lock-free
// cached class-semantics lookup — never a payload decode and zero
// steady-state allocations (pinned by TestLaneRoutingZeroAlloc). FIFO
// deliberately routes parallel: per-publisher order is exactly what the
// publisher-hashed lanes preserve.
func (ls *laneSet) routeSerial(env *codec.Envelope) bool {
	if env.HasPriority || env.Ordering > obvent.FIFO {
		return true
	}
	if env.Ordering == obvent.FIFO {
		return false
	}
	if sem, ok := ls.reg.ClassSemantics(env.Type); ok {
		return sem.Prioritary || sem.Ordering > obvent.FIFO
	}
	return false
}

// laneKey is the envelope's publisher identity for lane hashing and
// per-publisher stealing: the publisher ID, or the publication ID when
// there is none.
func laneKey(env *codec.Envelope) string {
	if env.Publisher != "" {
		return env.Publisher
	}
	return env.ID
}

// laneIndex hashes a publisher key onto a parallel lane: one publisher's
// envelopes always share a lane, keeping per-publisher arrival order
// stable. FNV-1a, inlined to stay allocation-free.
func laneIndex(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// stats folds every lane's counters into one engine-wide snapshot.
func (ls *laneSet) stats() DispatchStats {
	total := ls.serial.st.counters.snapshot()
	for _, l := range ls.par {
		total.add(l.st.counters.snapshot())
	}
	return total
}

// laneStats snapshots each lane individually, serial lane first.
func (ls *laneSet) laneStats() []LaneStat {
	out := make([]LaneStat, 0, len(ls.par)+1)
	out = append(out, ls.serial.stat(-1))
	for i, l := range ls.par {
		out = append(out, l.stat(i))
	}
	return out
}

// close shuts every lane down, draining their backlogs (including any
// spill backlog) first.
func (ls *laneSet) close() {
	var wg sync.WaitGroup
	for _, l := range append([]*lane{ls.serial}, ls.par...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.close()
		}()
	}
	wg.Wait()
}

// laneItem is one queued envelope plus its publisher key (for
// per-publisher stealing), its priority and arrival sequence (the
// priority order's sort key; the sequence also finds the oldest item to
// shed) and its telemetry enqueue timestamp (0 when telemetry is off at
// enqueue time). All of it rides the queue, never the envelope: the same
// *Envelope may be routed concurrently many times (loopback fan-in,
// benchmarks), so envelopes must stay immutable through the dispatcher —
// which is also what lets the spill path re-encode them safely.
type laneItem struct {
	env  *codec.Envelope
	pub  string
	prio int
	seq  uint64
	enq  int64
}

// laneOrder is a lane's one parameter: the order its queue pops in.
type laneOrder int

const (
	// arrivalOrder pops oldest first, off a ring: a publisher-hashed
	// parallel lane.
	arrivalOrder laneOrder = iota
	// priorityOrder pops the highest priority first and in arrival order
	// among equals, off the heap of inbox.go: the serial lane.
	priorityOrder
)

// laneShrinkMin is the queue capacity below which lanes never bother
// shrinking their backing arrays: reclaiming a few hundred pointers is
// not worth the copy, and a small warm buffer avoids re-growing under
// ordinary jitter.
const laneShrinkMin = 64

// laneQueue is a lane's in-memory queue in either order, over one
// []laneItem so that nothing is boxed on the way in or out.
type laneQueue struct {
	order laneOrder
	items []laneItem
	head  int // arrivalOrder: index of the next item to pop; a heap keeps 0
}

func (q *laneQueue) len() int { return len(q.items) - q.head }

func (q *laneQueue) push(item laneItem) {
	q.items = append(q.items, item)
	if q.order == priorityOrder {
		heapUp(q.items, len(q.items)-1)
	}
}

// pop removes the next item in the queue's order.
func (q *laneQueue) pop() (item laneItem) {
	if q.order == priorityOrder {
		q.items, item = heapRemove(q.items, 0)
	} else {
		item = q.items[q.head]
		q.items[q.head] = laneItem{}
		q.head++
	}
	q.compact()
	return item
}

// dropOldest removes the earliest arrival whatever its priority: the
// ring's head, or the heap's minimum sequence — an O(n) scan, but only
// DropOldest at the overload boundary asks, never the steady state.
func (q *laneQueue) dropOldest() {
	if q.order == arrivalOrder {
		q.pop()
		return
	}
	oldest := 0
	for i := range q.items {
		if q.items[i].seq < q.items[oldest].seq {
			oldest = i
		}
	}
	q.items, _ = heapRemove(q.items, oldest)
}

// compact keeps the queue's memory proportional to its live backlog.
// Without it, append would grow a ring forever (head only advances) and
// a one-time burst would pin its high-water array for the engine's
// lifetime. A straight copy preserves the heap invariant.
func (q *laneQueue) compact() {
	live := q.len()
	switch {
	case live == 0:
		// Empty: restart at the front; release a burst-sized array.
		if cap(q.items) > laneShrinkMin {
			q.items = nil
		} else {
			q.items = q.items[:0]
		}
		q.head = 0
	case cap(q.items) > laneShrinkMin && cap(q.items) > 4*live:
		// Backlog occupies under a quarter of the array: right-size it.
		shrunk := make([]laneItem, live)
		copy(shrunk, q.items[q.head:])
		q.items = shrunk
		q.head = 0
	case q.head >= laneShrinkMin && 2*q.head >= len(q.items):
		// Mostly dead prefix: slide the live tail down in place so
		// append reuses the front instead of growing.
		copy(q.items, q.items[q.head:])
		clear(q.items[live:])
		q.items = q.items[:live]
		q.head = 0
	}
}

// pubLoan is one publisher's backlog on loan to a thief lane: while the
// loan is open, every arrival for that publisher lands in buf (guarded
// by the owning lane's mu) and the thief drains it before closing the
// loan, so per-publisher order survives the steal.
type pubLoan struct {
	buf []laneItem
}

// stealMinBacklog is the sibling backlog below which stealing does not
// pay: moving a couple of envelopes costs more in synchronization than
// letting the owner drain them.
const stealMinBacklog = 8

// spillDrainBatch bounds how many spilled records one refill moves back
// into memory.
const spillDrainBatch = 64

// lane is one dispatch lane: a single goroutine draining a bounded queue
// in the lane's order. A full lane applies its overload policy; an idle
// parallel lane steals whole-publisher batches from the hottest sibling.
type lane struct {
	dispatch func(*codec.Envelope, *laneState)
	tele     *telemetry.Plane
	idx      int // histogram shard and spill directory index
	cfg      laneConfig
	set      *laneSet // sibling access for work-stealing (nil: serial lane, tests)

	mu      sync.Mutex
	cond    *sync.Cond // work available (lane goroutine waits here)
	notFull *sync.Cond // space available (OverloadBlock pushers wait here)
	q       laneQueue
	nextSeq uint64
	closed  bool
	wg      sync.WaitGroup
	// high is the occupancy high-water mark (LaneStat.HighWater).
	high int

	// busyPub is the publisher key of the envelope currently being
	// dispatched by this lane's goroutine ("" when idle); guarded by mu.
	// A thief never steals the busy publisher — its in-flight dispatch
	// would race the stolen batch.
	busyPub string
	// loans are the publishers currently on loan to thief lanes.
	loans map[string]*pubLoan

	spill laneSpill

	st laneState
}

// newLane constructs a lane without starting its goroutine; newLaneSet
// starts all lanes only after par is fully populated so a thief's steal
// scan never races the set's construction.
func newLane(order laneOrder, dispatch func(*codec.Envelope, *laneState), tele *telemetry.Plane, idx int, cfg laneConfig, set *laneSet) *lane {
	l := &lane{dispatch: dispatch, tele: tele, idx: idx, cfg: cfg, set: set}
	l.q.order = order
	l.cond = sync.NewCond(&l.mu)
	l.notFull = sync.NewCond(&l.mu)
	l.spill.init(cfg, idx)
	return l
}

func (l *lane) start() {
	l.wg.Add(1)
	go l.loop()
}

// occupancyLocked is what the lane owes in memory, and what its bound
// bounds: the queue plus every arrival waiting in an open loan buffer.
// A loan moves a publisher's backlog to a thief, not off the books — the
// buffer behind it fills exactly as the queue would have.
func (l *lane) occupancyLocked() int {
	n := l.q.len()
	for _, lo := range l.loans {
		n += len(lo.buf)
	}
	return n
}

// noteOccupancyLocked raises the high-water mark to the current
// occupancy; every path that adds to what the lane owes calls it.
func (l *lane) noteOccupancyLocked() {
	if n := l.occupancyLocked(); n > l.high {
		l.high = n
	}
}

func (l *lane) push(env *codec.Envelope, pub string, prio int) {
	var enq int64
	if l.tele.Enabled() {
		enq = telemetry.Now()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.st.enqueued.Add(1)
	item := laneItem{env: env, pub: pub, prio: prio, enq: enq}
	// Admission re-runs from the top after every Block wait: what freed
	// the space may have been a thief putting this publisher on loan, and
	// the item must then follow the loan, not the queue.
	for l.cfg.bound > 0 {
		// Spill mode is sticky: while a disk backlog exists (only the
		// Spill policy makes one) it is older than any new arrival, so
		// arrivals keep spilling until it fully drains.
		if l.spill.count == 0 && l.occupancyLocked() < l.cfg.bound {
			break
		}
		if l.cfg.policy == OverloadSpill {
			if l.spill.append(env, prio) {
				l.st.counters.spilled.Add(1)
			} else {
				// A spill failure degrades to a counted shed — the lane
				// must keep draining even with a broken disk.
				l.st.counters.shed.Add(1)
			}
			l.cond.Signal()
			l.mu.Unlock()
			return
		}
		if l.cfg.policy == OverloadDropOldest {
			l.shedOldestLocked()
			break
		}
		l.notFull.Wait() // OverloadBlock
		if l.closed {
			l.mu.Unlock()
			return
		}
	}
	l.nextSeq++
	item.seq = l.nextSeq
	// A publisher on loan: its backlog belongs to the thief until the loan
	// closes. Appending to the loan buffer (never the queue, which the
	// victim would dispatch after the thief delivers later ones) keeps
	// per-publisher order — the thief drains it before returning.
	if lo, ok := l.loans[pub]; ok {
		lo.buf = append(lo.buf, item)
		l.noteOccupancyLocked()
		l.mu.Unlock()
		return
	}
	l.q.push(item)
	l.noteOccupancyLocked()
	l.cond.Signal()
	// A backlog crossing (or re-crossing) the steal threshold means this
	// lane is hot while a sibling may be parked: wake one idle thief.
	// The wake runs after releasing our own lock — lane locks never nest.
	backlog := l.q.len()
	wake := l.set != nil && backlog >= stealMinBacklog && backlog%stealMinBacklog == 0
	l.mu.Unlock()
	if wake {
		l.set.wakeThief(l)
	}
}

// shedOldestLocked drops the oldest envelope the lane owes
// (OverloadDropOldest): the queue's, and with the queue empty the oldest
// waiting in a loan buffer. Only a full lane sheds, so one of the two is
// there. Losing the front of a buffer leaves a gap in that publisher's
// sequence, never a reorder.
func (l *lane) shedOldestLocked() {
	if l.q.len() > 0 {
		l.q.dropOldest()
	} else {
		var oldest *pubLoan
		for _, lo := range l.loans {
			if len(lo.buf) > 0 && (oldest == nil || lo.buf[0].seq < oldest.buf[0].seq) {
				oldest = lo
			}
		}
		oldest.buf[0] = laneItem{}
		oldest.buf = oldest.buf[1:]
	}
	// Counted, not traced: this runs under l.mu, and a trace hook calling
	// back into LaneStats would deadlock.
	l.st.counters.shed.Add(1)
}

// stat snapshots the lane for Engine.LaneStats; idx is its LaneStat.Lane.
func (l *lane) stat(idx int) LaneStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LaneStat{
		Lane:         idx,
		Serial:       l.q.order == priorityOrder,
		Enqueued:     l.st.enqueued.Load(),
		Queued:       l.occupancyLocked(),
		HighWater:    l.high,
		Bound:        l.cfg.bound,
		Policy:       l.cfg.policy,
		SpillBacklog: l.spill.count,
		Stats:        l.st.counters.snapshot(),
	}
}

func (l *lane) loop() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		l.busyPub = ""
		for l.q.len() == 0 {
			if l.spill.count > 0 {
				// Refill from the spill backlog before anything newer:
				// spilled records are older than every queued arrival.
				l.refillFromSpillLocked()
				continue
			}
			if l.closed {
				l.mu.Unlock()
				return
			}
			if l.set != nil && l.stealLocked() {
				continue
			}
			l.cond.Wait()
		}
		item := l.q.pop()
		l.busyPub = item.pub
		l.notFull.Signal()
		l.mu.Unlock()
		l.runItem(item)
	}
}

// runItem records the queue-wait telemetry for one envelope and
// dispatches it on this lane's private state.
func (l *lane) runItem(item laneItem) {
	l.st.deq = 0
	if item.enq != 0 {
		// lane_wait closes on dequeue; the dequeue timestamp is
		// reused as the dispatch-span start so the two stages tile
		// without a second clock read.
		now := telemetry.Now()
		l.tele.Record(uint32(l.idx), telemetry.StageLaneWait, now-item.enq)
		l.st.deq = now
	}
	l.dispatch(item.env, &l.st)
}

// refillFromSpillLocked moves up to spillDrainBatch spilled records back
// into the in-memory queue (caller holds mu), re-sequencing them in spill
// (arrival) order with the priority each record carries. Spill therefore
// preserves arrival order, and priority overtaking applies within the
// in-memory window only: a degradation of Prioritary under overload,
// never of Causal/Total arrival order.
func (l *lane) refillFromSpillLocked() {
	l.spill.drain(func(data []byte) {
		env, prio, err := unmarshalSpill(data)
		if err != nil {
			l.st.counters.decodeErrors.Add(1)
			return
		}
		var enq int64
		if l.tele.Enabled() {
			enq = telemetry.Now()
		}
		l.nextSeq++
		l.q.push(laneItem{env: env, pub: laneKey(env), prio: prio, seq: l.nextSeq, enq: enq})
	})
	l.noteOccupancyLocked()
	l.st.counters.spillDrained.Add(uint64(l.spill.lastDrained))
	if l.spill.count == 0 {
		// Disk backlog fully drained: new arrivals queue in memory again
		// and Block-policy pushers may have space.
		l.notFull.Broadcast()
	}
}

// wakeThief signals the first idle parallel lane other than hot, so a
// parked sibling gets a chance to steal hot's backlog. Called with no
// lane lock held.
func (ls *laneSet) wakeThief(hot *lane) {
	for _, s := range ls.par {
		if s == hot {
			continue
		}
		s.mu.Lock()
		idle := s.q.len() == 0 && s.spill.count == 0 && !s.closed
		if idle {
			s.cond.Signal()
		}
		s.mu.Unlock()
		if idle {
			return
		}
	}
}

// stealLocked is called by the lane goroutine when its own queue is
// empty (caller holds mu). It releases the lane's own lock, steals and
// dispatches the hottest sibling's hottest publisher batch, and
// re-acquires the lock. Returns true when any work was done (caller
// re-checks its queue), false when there was nothing to steal (caller
// may sleep).
func (l *lane) stealLocked() bool {
	l.mu.Unlock()
	stole := l.stealCycle()
	l.mu.Lock()
	return stole || l.q.len() > 0 || l.spill.count > 0 || l.closed
}

// stealCycle performs one complete loan: pick a victim and publisher,
// extract the publisher's queued batch, dispatch it here, then drain any
// arrivals that accumulated in the loan buffer until it runs dry. The
// batch in hand is the one thing a bounded victim owes above its bound.
func (l *lane) stealCycle() bool {
	victim, pub, batch := l.stealBatch()
	if victim == nil {
		return false
	}
	l.st.counters.steals.Add(1)
	for {
		l.st.counters.stolen.Add(uint64(len(batch)))
		for _, item := range batch {
			l.runItem(item)
		}
		victim.mu.Lock()
		lo := victim.loans[pub]
		if len(lo.buf) == 0 {
			delete(victim.loans, pub)
			victim.mu.Unlock()
			return true
		}
		batch, lo.buf = lo.buf, nil
		// Taking the buffer lowered the victim's occupancy.
		victim.notFull.Broadcast()
		victim.mu.Unlock()
	}
}

// stealBatch picks the sibling with the longest queue and extracts
// every queued envelope of its hottest stealable publisher, installing
// a loan so later arrivals for that publisher follow the batch instead
// of racing it. Lock discipline: only the victim's mu is held — lane
// locks never nest, so steals cannot deadlock.
func (l *lane) stealBatch() (victim *lane, pub string, batch []laneItem) {
	if l.cfg.bound > 0 && l.cfg.policy == OverloadSpill {
		// A Spill-policy lane (the set shares one config) lends nothing:
		// a loaned publisher's overflow could not go to the victim's disk
		// log, which the victim refills and dispatches itself, without a
		// per-publisher reorder — and a backlog already on disk is newer
		// than the in-memory window a thief would take.
		return nil, "", nil
	}
	var best *lane
	bestLen := stealMinBacklog - 1
	for _, s := range l.set.par {
		if s == l {
			continue
		}
		s.mu.Lock()
		n := s.q.len()
		s.mu.Unlock()
		if n > bestLen {
			best, bestLen = s, n
		}
	}
	if best == nil {
		return nil, "", nil
	}
	best.mu.Lock()
	defer best.mu.Unlock()
	// Hottest publisher among the queued items, skipping the one in
	// dispatch right now and those already on loan. The map allocates,
	// but only on this rare idle-lane path — never per envelope.
	queued := best.q.items[best.q.head:]
	counts := make(map[string]int)
	for i := range queued {
		p := queued[i].pub
		if p == best.busyPub {
			continue
		}
		if _, loaned := best.loans[p]; loaned {
			continue
		}
		counts[p]++
	}
	bestCount := 0
	for p, c := range counts {
		if c > bestCount || (c == bestCount && p < pub) {
			pub, bestCount = p, c
		}
	}
	if bestCount == 0 {
		return nil, "", nil
	}
	w := 0
	for i := range queued {
		if queued[i].pub == pub {
			batch = append(batch, queued[i])
		} else {
			queued[w] = queued[i]
			w++
		}
	}
	clear(queued[w:])
	best.q.items = best.q.items[:best.q.head+w]
	if best.loans == nil {
		best.loans = make(map[string]*pubLoan)
	}
	best.loans[pub] = &pubLoan{}
	// The extraction lowered the victim's occupancy: wake Block-policy
	// pushers.
	best.notFull.Broadcast()
	return best, pub, batch
}

// close marks the lane closed, wakes everyone (drain goroutine and any
// blocked pushers) and waits for the backlog — memory and spill — to
// drain. Broadcast, not Signal: Signal wakes a single waiter, which
// would leave the other blocked pushers waiting forever.
func (l *lane) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.notFull.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()
	l.spill.close()
}
