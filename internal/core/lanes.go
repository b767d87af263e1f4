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
//	              ┌► serial lane (priority heap) ── causal/total/prioritary
//	deliver ─► route
//	              └► lane[hash(publisher) % N]  ── FIFO + everything else
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
// Every lane queue may be bounded (laneConfig.bound); a full lane
// applies the engine's OverloadPolicy. Idle parallel lanes steal
// whole-publisher batches from the hottest sibling (the loan protocol
// below), so one hot publisher no longer pins one lane while the others
// sleep.
//
// Each lane owns its queue, its dispatchScratch and its dispatchCounters,
// so lanes never contend on dispatch state; Engine.Stats folds the
// per-lane counters, Engine.LaneStats exposes them individually.

// OverloadPolicy selects what a bounded dispatch lane does with new
// arrivals once its queue is full (laneConfig.bound reached). The zero
// value is OverloadBlock.
type OverloadPolicy int

const (
	// OverloadBlock applies backpressure: the push blocks until the lane
	// drains below its bound (or the lane closes). Publishers on this
	// process and transport reader goroutines slow down; nothing is lost.
	OverloadBlock OverloadPolicy = iota
	// OverloadDropOldest sheds the oldest queued envelope to admit the
	// new one. Sheds are counted (DispatchStats.Shed, telemetry reason
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
	// bound caps each lane's in-memory queue; 0 means unbounded (the
	// default), and then policy never applies.
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
	// Queued is the instantaneous in-memory backlog length.
	Queued int
	// Bound is the lane's queue bound (0 = unbounded).
	Bound int
	// Policy is the lane's overload policy (meaningful when Bound > 0).
	Policy OverloadPolicy
	// SpillBacklog counts envelopes currently spilled to the lane's
	// overflow segment log and not yet drained.
	SpillBacklog int
	// Stats are the lane's cumulative dispatch counters.
	Stats DispatchStats
}

// laneSet is the engine's dispatcher: one serial priority lane plus N
// parallel FIFO lanes.
type laneSet struct {
	reg    *obvent.Registry
	cfg    laneConfig
	serial *priorityInbox
	par    []*fifoLane
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
	ls := &laneSet{
		reg:    reg,
		cfg:    cfg,
		serial: newPriorityInbox(dispatch, tele, cfg),
		par:    make([]*fifoLane, n),
	}
	for i := range ls.par {
		// Gauge index i+1: the serial lane owns gauge 0.
		ls.par[i] = makeFifoLane(dispatch, tele, i+1, cfg, ls)
	}
	// Start the loops only once every sibling is in par: an idle lane's
	// first act is a steal scan over set.par, which must never observe
	// the slice mid-construction.
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
		ls.serial.push(env, prio)
		return
	}
	key := laneKey(env)
	ls.par[laneIndex(key, len(ls.par))].push(env, key)
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

// laneFor returns the parallel lane an envelope hashes onto.
func (ls *laneSet) laneFor(env *codec.Envelope) int {
	return laneIndex(laneKey(env), len(ls.par))
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
	out = append(out, LaneStat{
		Lane:         -1,
		Serial:       true,
		Enqueued:     ls.serial.st.enqueued.Load(),
		Queued:       ls.serial.queued(),
		Bound:        ls.cfg.bound,
		Policy:       ls.cfg.policy,
		SpillBacklog: ls.serial.spillBacklog(),
		Stats:        ls.serial.st.counters.snapshot(),
	})
	for i, l := range ls.par {
		out = append(out, LaneStat{
			Lane:         i,
			Enqueued:     l.st.enqueued.Load(),
			Queued:       l.queued(),
			Bound:        ls.cfg.bound,
			Policy:       ls.cfg.policy,
			SpillBacklog: l.spillBacklog(),
			Stats:        l.st.counters.snapshot(),
		})
	}
	return out
}

// close shuts every lane down, draining their backlogs (including any
// spill backlog) first.
func (ls *laneSet) close() {
	var wg sync.WaitGroup
	wg.Add(1 + len(ls.par))
	go func() {
		defer wg.Done()
		ls.serial.close()
	}()
	for _, l := range ls.par {
		go func(l *fifoLane) {
			defer wg.Done()
			l.close()
		}(l)
	}
	wg.Wait()
}

// laneItem is one queued envelope plus its publisher key (for
// per-publisher stealing) and its telemetry enqueue timestamp (0 when
// telemetry is off at enqueue time). The timestamp rides the queue,
// never the envelope: the same *Envelope may be routed concurrently many
// times (loopback fan-in, benchmarks), so envelopes must stay immutable
// through the dispatcher — which is also what lets the spill path
// re-encode them safely.
type laneItem struct {
	env *codec.Envelope
	pub string
	enq int64
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

// fifoLane is one parallel dispatch lane: a single goroutine draining a
// FIFO queue in arrival order. The queue may be bounded (laneConfig);
// an idle lane steals whole-publisher batches from the hottest sibling.
type fifoLane struct {
	dispatch func(*codec.Envelope, *laneState)
	tele     *telemetry.Plane
	gauge    int // telemetry occupancy-gauge index (serial lane = 0)
	cfg      laneConfig
	set      *laneSet // sibling access for work-stealing (nil in tests)

	mu      sync.Mutex
	cond    *sync.Cond // work available (lane goroutine waits here)
	notFull *sync.Cond // space available (OverloadBlock pushers wait here)
	queue   []laneItem
	head    int // index of the next envelope to pop
	closed  bool
	wg      sync.WaitGroup

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

func newFifoLane(dispatch func(*codec.Envelope, *laneState), tele *telemetry.Plane, gauge int, cfg laneConfig, set *laneSet) *fifoLane {
	l := makeFifoLane(dispatch, tele, gauge, cfg, set)
	l.start()
	return l
}

// makeFifoLane constructs a lane without starting its goroutine;
// newLaneSet starts all lanes only after par is fully populated so a
// thief's steal scan never races the set's construction.
func makeFifoLane(dispatch func(*codec.Envelope, *laneState), tele *telemetry.Plane, gauge int, cfg laneConfig, set *laneSet) *fifoLane {
	l := &fifoLane{dispatch: dispatch, tele: tele, gauge: gauge, cfg: cfg, set: set}
	l.cond = sync.NewCond(&l.mu)
	l.notFull = sync.NewCond(&l.mu)
	l.spill.init(cfg, gauge)
	return l
}

func (l *fifoLane) start() {
	l.wg.Add(1)
	go l.loop()
}

func (l *fifoLane) push(env *codec.Envelope, pub string) {
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
	item := laneItem{env: env, pub: pub, enq: enq}
	// The routing decision re-runs from the top after every Block wait:
	// while the pusher was parked a thief may have put this publisher on
	// loan (its extraction is what frees the space and wakes us), and
	// appending to the queue then would let the victim dispatch this item
	// after the thief delivers later ones — a per-publisher reorder.
	for {
		// A publisher on loan: its backlog belongs to the thief until the
		// loan closes. Appending to the loan buffer (never the queue)
		// keeps per-publisher order — the thief drains it before
		// returning.
		if lo, ok := l.loans[pub]; ok {
			lo.buf = append(lo.buf, item)
			l.mu.Unlock()
			return
		}
		// Spill mode is sticky: while a disk backlog exists it is older
		// than any new arrival, so arrivals keep spilling until it fully
		// drains.
		if l.spill.count > 0 {
			l.spillItem(item)
			l.cond.Signal()
			l.mu.Unlock()
			return
		}
		if l.cfg.bound <= 0 || len(l.queue)-l.head < l.cfg.bound {
			break
		}
		switch l.cfg.policy {
		case OverloadDropOldest:
			l.shedOldestLocked()
		case OverloadSpill:
			l.spillItem(item)
			l.cond.Signal()
			l.mu.Unlock()
			return
		default: // OverloadBlock
			for !l.closed && len(l.queue)-l.head >= l.cfg.bound {
				l.notFull.Wait()
			}
			if l.closed {
				l.mu.Unlock()
				return
			}
			continue
		}
		break
	}
	l.queue = append(l.queue, item)
	l.cond.Signal()
	// A backlog crossing (or re-crossing) the steal threshold means this
	// lane is hot while a sibling may be parked: wake one idle thief.
	// The wake runs after releasing our own lock — lane locks never nest.
	backlog := len(l.queue) - l.head
	wake := l.set != nil && backlog >= stealMinBacklog && backlog%stealMinBacklog == 0
	l.mu.Unlock()
	if wake {
		l.set.wakeThief(l)
	}
}

// shedOldestLocked drops the oldest queued envelope (OverloadDropOldest).
func (l *fifoLane) shedOldestLocked() {
	item := l.queue[l.head]
	l.queue[l.head] = laneItem{}
	l.head++
	l.noteShed(item.env)
}

// noteShed counts one shed envelope in the lane counters and the
// telemetry drop map. It runs under l.mu, so it must not invoke user
// hooks (a trace hook calling back into LaneStats would deadlock).
func (l *fifoLane) noteShed(env *codec.Envelope) {
	l.st.counters.shed.Add(1)
	l.tele.Drop(telemetry.ReasonOverloadShed)
}

// spillItem appends one envelope to the lane's overflow segment log
// (caller holds mu). A spill failure degrades to a counted shed — the
// lane must keep draining even with a broken disk.
func (l *fifoLane) spillItem(item laneItem) {
	if l.spill.append(item.env, 0) {
		l.st.counters.spilled.Add(1)
	} else {
		l.noteShed(item.env)
	}
}

// queued returns the instantaneous in-memory backlog length.
func (l *fifoLane) queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue) - l.head
}

// spillBacklog returns the number of spilled, not-yet-drained envelopes.
func (l *fifoLane) spillBacklog() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spill.count
}

func (l *fifoLane) loop() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		l.busyPub = ""
		for l.head == len(l.queue) {
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
		item := l.queue[l.head]
		l.queue[l.head] = laneItem{}
		l.head++
		l.compactLocked()
		l.busyPub = item.pub
		backlog := len(l.queue) - l.head
		l.notFull.Signal()
		l.mu.Unlock()
		l.runItem(item, backlog)
	}
}

// runItem records the queue-wait telemetry for one envelope and
// dispatches it on this lane's private state.
func (l *fifoLane) runItem(item laneItem, backlog int) {
	l.st.deq = 0
	if item.enq != 0 {
		// lane_wait closes on dequeue; the dequeue timestamp is
		// reused as the dispatch-span start so the two stages tile
		// without a second clock read.
		now := telemetry.Now()
		l.tele.Record(uint32(l.gauge), telemetry.StageLaneWait, now-item.enq)
		l.tele.SampleQueue(l.gauge, backlog)
		l.st.deq = now
	}
	l.dispatch(item.env, &l.st)
}

// refillFromSpillLocked moves up to spillDrainBatch spilled records back
// into the in-memory queue (caller holds mu; the segment log is
// internally synchronized, so concurrent drains by a blocked pusher are
// impossible but concurrent appends would be safe).
func (l *fifoLane) refillFromSpillLocked() {
	l.spill.drain(func(data []byte) {
		env, _, err := unmarshalSpill(data)
		if err != nil {
			l.st.counters.decodeErrors.Add(1)
			l.tele.Drop(telemetry.ReasonDecodeError)
			return
		}
		var enq int64
		if l.tele.Enabled() {
			enq = telemetry.Now()
		}
		l.queue = append(l.queue, laneItem{env: env, pub: laneKey(env), enq: enq})
	})
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
func (ls *laneSet) wakeThief(hot *fifoLane) {
	for _, s := range ls.par {
		if s == hot {
			continue
		}
		s.mu.Lock()
		idle := s.head == len(s.queue) && s.spill.count == 0 && !s.closed
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
func (l *fifoLane) stealLocked() bool {
	l.mu.Unlock()
	stole := l.stealCycle()
	l.mu.Lock()
	return stole || l.head < len(l.queue) || l.spill.count > 0 || l.closed
}

// stealCycle performs one complete loan: pick a victim and publisher,
// extract the publisher's queued batch, dispatch it here, then drain any
// arrivals that accumulated in the loan buffer until it runs dry.
func (l *fifoLane) stealCycle() bool {
	victim, pub, batch := l.stealBatch()
	if victim == nil {
		return false
	}
	l.st.counters.steals.Add(1)
	for {
		l.st.counters.stolen.Add(uint64(len(batch)))
		for _, item := range batch {
			l.runItem(item, 0)
		}
		victim.mu.Lock()
		lo := victim.loans[pub]
		if len(lo.buf) == 0 {
			delete(victim.loans, pub)
			victim.mu.Unlock()
			return true
		}
		batch, lo.buf = lo.buf, nil
		victim.mu.Unlock()
	}
}

// stealBatch picks the sibling with the largest backlog and extracts
// every queued envelope of its hottest stealable publisher, installing
// a loan so later arrivals for that publisher follow the batch instead
// of racing it. Lock discipline: only the victim's mu is held — lane
// locks never nest, so steals cannot deadlock.
func (l *fifoLane) stealBatch() (victim *fifoLane, pub string, batch []laneItem) {
	var best *fifoLane
	bestLen := stealMinBacklog - 1
	for _, s := range l.set.par {
		if s == l {
			continue
		}
		if n := s.queued(); n > bestLen {
			best, bestLen = s, n
		}
	}
	if best == nil {
		return nil, "", nil
	}
	best.mu.Lock()
	defer best.mu.Unlock()
	if best.spill.count > 0 {
		// A spilling lane's disk backlog may hold newer envelopes of any
		// publisher; stealing its in-memory window would reorder them.
		return nil, "", nil
	}
	// Hottest publisher among the queued items, skipping the one in
	// dispatch right now and those already on loan. The map allocates,
	// but only on this rare idle-lane path — never per envelope.
	counts := make(map[string]int)
	for i := best.head; i < len(best.queue); i++ {
		p := best.queue[i].pub
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
	w := best.head
	for i := best.head; i < len(best.queue); i++ {
		if best.queue[i].pub == pub {
			batch = append(batch, best.queue[i])
		} else {
			best.queue[w] = best.queue[i]
			w++
		}
	}
	for i := w; i < len(best.queue); i++ {
		best.queue[i] = laneItem{}
	}
	best.queue = best.queue[:w]
	if best.loans == nil {
		best.loans = make(map[string]*pubLoan)
	}
	best.loans[pub] = &pubLoan{}
	// The extraction freed queue space: wake Block-policy pushers.
	best.notFull.Broadcast()
	return best, pub, batch
}

// compactLocked keeps the queue's memory proportional to its live
// backlog. Without it, append would grow the slice forever (head only
// advances) and a one-time burst would pin its high-water array for the
// engine's lifetime.
func (l *fifoLane) compactLocked() {
	live := len(l.queue) - l.head
	switch {
	case live == 0:
		// Empty: restart at the front; release a burst-sized array.
		if cap(l.queue) > laneShrinkMin {
			l.queue = nil
		} else {
			l.queue = l.queue[:0]
		}
		l.head = 0
	case cap(l.queue) > laneShrinkMin && cap(l.queue) > 4*live:
		// Backlog occupies under a quarter of the array: right-size it.
		shrunk := make([]laneItem, live)
		copy(shrunk, l.queue[l.head:])
		l.queue = shrunk
		l.head = 0
	case l.head >= laneShrinkMin && 2*l.head >= len(l.queue):
		// Mostly dead prefix: slide the live tail down in place so
		// append reuses the front instead of growing.
		copy(l.queue, l.queue[l.head:])
		for i := live; i < len(l.queue); i++ {
			l.queue[i] = laneItem{}
		}
		l.queue = l.queue[:live]
		l.head = 0
	}
}

// close marks the lane closed, wakes everyone (drain goroutine and any
// blocked pushers) and waits for the backlog — memory and spill — to
// drain. Broadcast for the same reason as priorityInbox.close.
func (l *fifoLane) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.notFull.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()
	l.spill.close()
}
