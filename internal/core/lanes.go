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
// The paper's transmission semantics (§3.1.2) constrain delivery order
// only within what one multicast group releases: FIFO per publisher,
// Causal and Total per class. Every lane is the same arrival-ordered
// queue drained by its own goroutine, so routing only has to keep each
// of those streams on one lane:
//
//	deliver ─► laneOf ─► lane[hash(class) % N]     ── causal/total classes
//	                  └► lane[hash(publisher) % N] ── FIFO, prioritary, everything else
//
// A lane owns the lock, the bound, the overload policies, the spill log,
// the drain loop, its depth counters and the lane_wait timing. Priority
// is not a lane's business: the subscription executor reorders by
// priority where handler backlog forms (executor.submit).
//
// Every lane may be bounded (laneConfig.bound): the bound counts the
// lane's queue, and a full lane applies the engine's OverloadPolicy.
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
	// Lane is the lane's index.
	Lane int
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

// laneSet is the engine's dispatcher: N arrival-ordered lanes.
type laneSet struct {
	reg   *obvent.Registry
	lanes []*lane
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
	ls := &laneSet{reg: reg, lanes: make([]*lane, n)}
	for i := range ls.lanes {
		ls.lanes[i] = newLane(dispatch, tele, i, cfg)
	}
	return ls
}

// route steers one envelope to its lane. Safe for concurrent use: the
// dissemination substrate may deliver from many goroutines.
func (ls *laneSet) route(env *codec.Envelope) {
	ls.lanes[ls.laneOf(env)].push(env)
}

// laneOf picks the envelope's lane. A class ordered beyond FIFO hashes
// by its name, so its lane keeps the order its group released it in.
// Every other envelope, FIFO included, hashes by its publisher ID, or
// without one by its name's count, which spreads such envelopes over the
// lanes without rendering anything. An envelope whose ordering was not
// stamped is resolved through its class's cached semantics
// (Registry.ClassSemantics, a lock-free lookup, never a decode). Routing
// allocates nothing (TestLaneRoutingZeroAlloc).
func (ls *laneSet) laneOf(env *codec.Envelope) int {
	n := len(ls.lanes)
	ordering := env.Ordering
	if ordering == obvent.NoOrder {
		if sem, ok := ls.reg.ClassSemantics(env.Type); ok {
			ordering = sem.Ordering
		}
	}
	switch {
	case ordering > obvent.FIFO:
		return laneIndex(env.Type, n)
	case env.Publisher != "":
		return laneIndex(env.Publisher, n)
	}
	return int(env.Name.N % uint64(n))
}

// laneIndex hashes a publisher or class key onto one of n lanes: one
// key's envelopes always share a lane, keeping their arrival order
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
	var total DispatchStats
	for _, l := range ls.lanes {
		total.add(l.st.counters.snapshot())
	}
	return total
}

// laneStats snapshots each lane individually.
func (ls *laneSet) laneStats() []LaneStat {
	out := make([]LaneStat, len(ls.lanes))
	for i, l := range ls.lanes {
		out[i] = l.stat()
	}
	return out
}

// close shuts every lane down, draining their backlogs (including any
// spill backlog) first.
func (ls *laneSet) close() {
	var wg sync.WaitGroup
	for _, l := range ls.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.close()
		}()
	}
	wg.Wait()
}

// laneItem is one queued envelope plus its telemetry enqueue timestamp
// (0 when telemetry is off at enqueue time), which rides the queue, never
// the envelope. A lane holds its own copy of the envelope and of its
// payload (in chunk, of the lane's store): the sink's envelope and the
// bytes it names are valid for the sink call only (a channel's scratch
// over a transport's frame, a publisher's pooled envelope and buffer).
// The copy of a pooled envelope still names the publisher's headroom,
// which the pool hands on; nothing seals a lane's copy, and Seal refuses
// a room whose buffer is not the payload's.
type laneItem struct {
	env   codec.Envelope
	chunk *chunk.Chunk
	enq   int64
}

// spillDrainBatch bounds how many spilled records one refill moves back
// into memory.
const spillDrainBatch = 64

// lane is one dispatch lane: a bounded arrival-ordered queue, drained
// by the lane's own goroutine alone. A full lane applies its
// overload policy.
type lane struct {
	dispatch func(*codec.Envelope, *laneState)
	tele     *telemetry.Plane
	idx      int // histogram shard and spill directory index
	cfg      laneConfig

	mu      sync.Mutex
	cond    *sync.Cond // work available (lane goroutine waits here)
	notFull *sync.Cond // space available (OverloadBlock pushers wait here)
	q       queue[laneItem]
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
func newLane(dispatch func(*codec.Envelope, *laneState), tele *telemetry.Plane, idx int, cfg laneConfig) *lane {
	l := &lane{dispatch: dispatch, tele: tele, idx: idx, cfg: cfg}
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

func (l *lane) push(env *codec.Envelope) {
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
			if l.spill.append(env) {
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
			l.store.Release(l.q.pop().chunk)
			l.st.counters.shed.Add(1)
			break
		}
		l.notFull.Wait() // OverloadBlock
		if l.closed {
			l.mu.Unlock()
			return
		}
	}
	item := laneItem{env: *env, enq: enq}
	item.env.Payload, item.chunk = l.store.Copy(env.Payload)
	l.q.push(item)
	l.noteHighLocked()
	l.cond.Signal()
	l.mu.Unlock()
}

// stat snapshots the lane for Engine.LaneStats.
func (l *lane) stat() LaneStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LaneStat{
		Lane:         l.idx,
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
// into the in-memory queue (caller holds mu), in spill (arrival) order.
func (l *lane) refillFromSpillLocked() {
	l.spill.drain(func(data []byte) {
		// The copying decode: a refill reads records out of the spill
		// log's buffer, and the envelope outlives the read.
		env, err := codec.Unmarshal(data)
		if err != nil {
			l.st.counters.decodeErrors.Add(1)
			return
		}
		var enq int64
		if l.tele.Enabled() {
			enq = telemetry.Now()
		}
		l.q.push(laneItem{env: *env, enq: enq})
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
