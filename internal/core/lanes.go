package core

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"govents/internal/chunk"
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
// Every lane is drained by its own goroutine and nothing else, and may
// be bounded (laneConfig.bound): the bound counts the lane's queue, and
// a full lane applies the engine's OverloadPolicy.
//
// Each lane owns its queue, its dispatchScratch and its dispatchCounters,
// so lanes never contend on dispatch state; Engine.Stats folds the
// per-lane counters, Engine.LaneStats exposes them individually.

// OverloadPolicy selects what a bounded dispatch lane does with new
// arrivals once it is full (its queue has reached laneConfig.bound).
// The zero value is OverloadBlock.
type OverloadPolicy int

const (
	// OverloadBlock makes the push wait until the lane drains below its
	// bound (or the lane closes); nothing is lost. The pusher is the
	// goroutine that delivers to the engine, with no queue in between:
	// the publisher under Local, and under a multicast group the
	// goroutine delivering its release list (a transport reader, or a
	// publisher delivering at its own node), which waits with it.
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
	// bound caps each lane's queue; 0 means unbounded (the default), and
	// then policy never applies.
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
	// Queued is the lane's instantaneous queue length: everything it owes
	// in memory, and what Bound bounds. The envelope the lane's goroutine
	// has in hand is in dispatch, not queued.
	Queued int
	// HighWater is the largest length Queued has reached, read as each
	// arrival is admitted (so it counts the arrival).
	HighWater int
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

// laneSet is the engine's dispatcher: one serial priority-ordered lane
// plus N parallel arrival-ordered lanes.
type laneSet struct {
	reg    *obvent.Registry
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
	ls := &laneSet{reg: reg, par: make([]*lane, n)}
	// The serial lane owns histogram shard (and spill directory) 0.
	ls.serial = newLane(priorityOrder, dispatch, tele, 0, cfg)
	for i := range ls.par {
		ls.par[i] = newLane(arrivalOrder, dispatch, tele, i+1, cfg)
	}
	return ls
}

// route steers one envelope to its lane. Safe for concurrent use: the
// dissemination substrate may deliver from many goroutines.
func (ls *laneSet) route(env *codec.Envelope) {
	if ls.routeSerial(env) {
		ls.serial.push(env, lanePriority(env))
		return
	}
	ls.par[laneIndex(laneKey(env), len(ls.par))].push(env, 0)
}

// lanePriority is an envelope's stamped priority, 0 without one.
func lanePriority(env *codec.Envelope) int {
	if env.HasPriority {
		return env.Priority
	}
	return 0
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

// laneKey is the envelope's publisher identity, which picks its parallel
// lane: the publisher ID, or the publication ID when there is none.
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

// laneItem is one queued envelope plus its priority and arrival sequence
// (the priority order's sort key; the sequence also finds the oldest item
// to shed) and its telemetry enqueue timestamp (0 when telemetry is off at
// enqueue time). All of it rides the queue, never the envelope, and a
// lane holds its own copy of the envelope and of its payload (in chunk,
// of the lane's store): the sink's envelope and the bytes it names are
// valid for the sink call only (a channel's scratch over a transport's
// frame, a publisher's pooled envelope and buffer). The copy of a pooled
// envelope still names the publisher's headroom, which the pool hands
// on; nothing seals a lane's copy, and Seal refuses a room whose buffer
// is not the payload's.
type laneItem struct {
	env   codec.Envelope
	chunk *chunk.Chunk
	prio  int
	seq   uint64
	enq   int64
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
func (q *laneQueue) dropOldest() (item laneItem) {
	if q.order == arrivalOrder {
		return q.pop()
	}
	oldest := 0
	for i := range q.items {
		if q.items[i].seq < q.items[oldest].seq {
			oldest = i
		}
	}
	q.items, item = heapRemove(q.items, oldest)
	return item
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

// spillDrainBatch bounds how many spilled records one refill moves back
// into memory.
const spillDrainBatch = 64

// lane is one dispatch lane: a bounded queue in the lane's order,
// drained by the lane's own goroutine alone. A full lane applies its
// overload policy.
type lane struct {
	dispatch func(*codec.Envelope, *laneState)
	tele     *telemetry.Plane
	idx      int // histogram shard and spill directory index
	cfg      laneConfig

	mu      sync.Mutex
	cond    *sync.Cond // work available (lane goroutine waits here)
	notFull *sync.Cond // space available (OverloadBlock pushers wait here)
	q       laneQueue
	nextSeq uint64
	closed  bool
	wg      sync.WaitGroup
	// high is the queue's high-water mark (LaneStat.HighWater).
	high int

	spill laneSpill
	// store holds the payloads of the queued items and of slot.
	store chunk.Store

	st   laneState
	slot laneItem // the item in dispatch, the lane goroutine's; zeroed after
}

// newLane constructs a lane and starts its goroutine.
func newLane(order laneOrder, dispatch func(*codec.Envelope, *laneState), tele *telemetry.Plane, idx int, cfg laneConfig) *lane {
	l := &lane{dispatch: dispatch, tele: tele, idx: idx, cfg: cfg}
	l.q.order = order
	l.cond = sync.NewCond(&l.mu)
	l.notFull = sync.NewCond(&l.mu)
	l.spill.init(cfg, idx)
	l.wg.Add(1)
	go l.loop()
	return l
}

// noteHighLocked raises the high-water mark to the current queue length;
// every path that adds to the queue calls it.
func (l *lane) noteHighLocked() {
	if n := l.q.len(); n > l.high {
		l.high = n
	}
}

func (l *lane) push(env *codec.Envelope, prio int) {
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
	// Spill mode is sticky: while a disk backlog exists (only the Spill
	// policy makes one) it is older than any new arrival, so arrivals keep
	// spilling until it fully drains.
	for l.cfg.bound > 0 && (l.spill.count > 0 || l.q.len() >= l.cfg.bound) {
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
			// Counted, not traced: this runs under l.mu, and a trace hook
			// calling back into LaneStats would deadlock.
			l.store.Release(l.q.dropOldest().chunk)
			l.st.counters.shed.Add(1)
			break
		}
		l.notFull.Wait() // OverloadBlock
		if l.closed {
			l.mu.Unlock()
			return
		}
	}
	l.nextSeq++
	item := laneItem{env: *env, prio: prio, seq: l.nextSeq, enq: enq}
	item.env.Payload, item.chunk = l.store.Copy(env.Payload)
	l.q.push(item)
	l.noteHighLocked()
	l.cond.Signal()
	l.mu.Unlock()
}

// stat snapshots the lane for Engine.LaneStats; idx is its LaneStat.Lane.
func (l *lane) stat(idx int) LaneStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LaneStat{
		Lane:         idx,
		Serial:       l.q.order == priorityOrder,
		Enqueued:     l.st.enqueued.Load(),
		Queued:       l.q.len(),
		HighWater:    l.high,
		Bound:        l.cfg.bound,
		Policy:       l.cfg.policy,
		SpillBacklog: l.spill.count,
		Stats:        l.st.counters.snapshot(),
	}
}

func (l *lane) loop() {
	defer l.wg.Done()
	var done *chunk.Chunk // the payload of the item dispatched last
	for {
		l.mu.Lock()
		l.store.Release(done)
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
			l.cond.Wait()
		}
		l.slot = l.q.pop()
		l.notFull.Signal()
		l.mu.Unlock()
		l.st.deq = 0
		if l.slot.enq != 0 {
			// lane_wait closes on dequeue; the dequeue timestamp is
			// reused as the dispatch-span start so the two stages tile
			// without a second clock read.
			now := telemetry.Now()
			l.tele.Record(uint32(l.idx), telemetry.StageLaneWait, now-l.slot.enq)
			l.st.deq = now
		}
		l.dispatch(&l.slot.env, &l.st)
		done = l.slot.chunk
		l.slot = laneItem{}
	}
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
		l.q.push(laneItem{env: *env, prio: prio, seq: l.nextSeq, enq: enq})
	})
	l.noteHighLocked()
	l.st.counters.spillDrained.Add(uint64(l.spill.lastDrained))
	if l.spill.count == 0 {
		// Disk backlog fully drained: new arrivals queue in memory again
		// and Block-policy pushers may have space.
		l.notFull.Broadcast()
	}
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
