package core

import (
	"container/heap"
	"sync"

	"govents/internal/codec"
	"govents/internal/telemetry"
)

// laneShrinkMin is the queue capacity below which lanes never bother
// shrinking their backing arrays: reclaiming a few hundred pointers is
// not worth the copy, and a small warm buffer avoids re-growing under
// ordinary jitter.
const laneShrinkMin = 64

// priorityInbox is the engine's serial dispatch lane: one goroutine
// drains a heap in priority order (higher first), with FIFO order among
// equal priorities. This realizes the Prioritary transmission semantics
// of §3.1.2 — "the delivery of obvents can be delayed to defer to
// obvents with a higher priority" — at the receiving process, where
// backlog actually forms. Because it is strictly serial it also
// preserves arrival order for the global ordered semantics
// (Causal/Total), whose envelopes the lane router (lanes.go) steers
// here; FIFO traffic needs only per-publisher order and drains through
// the parallel lanes instead.
//
// The heap may be bounded (laneConfig.bound), applying the engine's
// overload policy when full. Under OverloadSpill, overflow preserves
// arrival order (each record carries its priority): priority overtaking
// then applies only within the in-memory window — a documented
// degradation of Prioritary under overload, never of Causal/Total
// arrival order.
type priorityInbox struct {
	dispatch func(*codec.Envelope, *laneState)
	tele     *telemetry.Plane
	cfg      laneConfig

	mu      sync.Mutex
	cond    *sync.Cond // work available (lane goroutine waits here)
	notFull *sync.Cond // space available (OverloadBlock pushers wait here)
	heap    inboxHeap
	nextSq  uint64
	closed  bool
	wg      sync.WaitGroup

	spill laneSpill

	// st is the lane's private dispatch working set (scratch buffers and
	// delivery counters); only the lane goroutine touches the scratch.
	st laneState
}

type inboxItem struct {
	env  *codec.Envelope
	prio int
	seq  uint64 // arrival order tiebreaker
	enq  int64  // telemetry enqueue timestamp (0 when telemetry is off)
}

func newPriorityInbox(dispatch func(*codec.Envelope, *laneState), tele *telemetry.Plane, cfg laneConfig) *priorityInbox {
	in := &priorityInbox{dispatch: dispatch, tele: tele, cfg: cfg}
	in.cond = sync.NewCond(&in.mu)
	in.notFull = sync.NewCond(&in.mu)
	in.spill.init(cfg, 0) // the serial lane owns gauge (and spill dir) 0
	in.wg.Add(1)
	go in.loop()
	return in
}

func (in *priorityInbox) push(env *codec.Envelope, prio int) {
	var enq int64
	if in.tele.Enabled() {
		enq = telemetry.Now()
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return
	}
	in.st.enqueued.Add(1)
	// Spill mode is sticky: while a disk backlog exists it is older than
	// any new arrival, so arrivals keep spilling until it fully drains.
	if in.spill.count > 0 {
		in.spillEnv(env, prio)
		in.cond.Signal()
		return
	}
	if in.cfg.bound > 0 && in.heap.Len() >= in.cfg.bound {
		switch in.cfg.policy {
		case OverloadDropOldest:
			in.shedOldestLocked()
		case OverloadSpill:
			in.spillEnv(env, prio)
			in.cond.Signal()
			return
		default: // OverloadBlock
			for !in.closed && in.heap.Len() >= in.cfg.bound {
				in.notFull.Wait()
			}
			if in.closed {
				return
			}
		}
	}
	in.pushLocked(env, prio, enq)
	in.cond.Signal()
}

func (in *priorityInbox) pushLocked(env *codec.Envelope, prio int, enq int64) {
	in.nextSq++
	heap.Push(&in.heap, inboxItem{env: env, prio: prio, seq: in.nextSq, enq: enq})
}

// shedOldestLocked drops the oldest queued envelope — the minimum
// arrival sequence, regardless of priority. An O(n) scan, but the shed
// path only runs at the overload boundary, never in steady state.
func (in *priorityInbox) shedOldestLocked() {
	oldest := 0
	for i := 1; i < len(in.heap); i++ {
		if in.heap[i].seq < in.heap[oldest].seq {
			oldest = i
		}
	}
	item := heap.Remove(&in.heap, oldest).(inboxItem)
	in.st.counters.shed.Add(1)
	in.tele.Drop(telemetry.ReasonOverloadShed)
	_ = item
}

// spillEnv appends one envelope (with its priority) to the overflow log
// (caller holds mu); a spill failure degrades to a counted shed.
func (in *priorityInbox) spillEnv(env *codec.Envelope, prio int) {
	if in.spill.append(env, prio) {
		in.st.counters.spilled.Add(1)
	} else {
		in.st.counters.shed.Add(1)
		in.tele.Drop(telemetry.ReasonOverloadShed)
	}
}

// queued returns the instantaneous in-memory backlog length.
func (in *priorityInbox) queued() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.heap.Len()
}

// spillBacklog returns the number of spilled, not-yet-drained envelopes.
func (in *priorityInbox) spillBacklog() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.spill.count
}

func (in *priorityInbox) loop() {
	defer in.wg.Done()
	for {
		in.mu.Lock()
		for in.heap.Len() == 0 {
			if in.spill.count > 0 {
				in.refillFromSpillLocked()
				continue
			}
			if in.closed {
				in.mu.Unlock()
				return
			}
			in.cond.Wait()
		}
		item := heap.Pop(&in.heap).(inboxItem)
		// A burst must not pin its high-water memory for the engine's
		// lifetime: once the backlog occupies under a quarter of the
		// backing array, move it to a right-sized one. A straight copy
		// preserves the heap invariant.
		if c := cap(in.heap); c > laneShrinkMin && c > 4*in.heap.Len() {
			shrunk := make(inboxHeap, in.heap.Len())
			copy(shrunk, in.heap)
			in.heap = shrunk
		}
		backlog := in.heap.Len()
		in.notFull.Signal()
		in.mu.Unlock()
		in.st.deq = 0
		if item.enq != 0 {
			// The serial lane owns gauge (and histogram shard) 0.
			now := telemetry.Now()
			in.tele.Record(0, telemetry.StageLaneWait, now-item.enq)
			in.tele.SampleQueue(0, backlog)
			in.st.deq = now
		}
		in.dispatch(item.env, &in.st)
	}
}

// refillFromSpillLocked moves a batch of spilled records back into the
// heap (caller holds mu), re-sequencing them in spill (arrival) order.
func (in *priorityInbox) refillFromSpillLocked() {
	in.spill.drain(func(data []byte) {
		env, prio, err := unmarshalSpill(data)
		if err != nil {
			in.st.counters.decodeErrors.Add(1)
			in.tele.Drop(telemetry.ReasonDecodeError)
			return
		}
		var enq int64
		if in.tele.Enabled() {
			enq = telemetry.Now()
		}
		in.pushLocked(env, prio, enq)
	})
	in.st.counters.spillDrained.Add(uint64(in.spill.lastDrained))
	if in.spill.count == 0 {
		in.notFull.Broadcast()
	}
}

// close marks the lane closed and waits for the backlog — memory and
// spill — to drain. Broadcast, not Signal: Signal wakes a single waiter,
// which would leave the remaining ones blocked forever if the condvar
// ever has more than one (several drainers sharing one lane, or a
// future close/flush waiter).
func (in *priorityInbox) close() {
	in.mu.Lock()
	in.closed = true
	in.cond.Broadcast()
	in.notFull.Broadcast()
	in.mu.Unlock()
	in.wg.Wait()
	in.spill.close()
}

// inboxHeap orders by descending priority, then ascending arrival.
type inboxHeap []inboxItem

func (h inboxHeap) Len() int { return len(h) }

func (h inboxHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}

func (h inboxHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *inboxHeap) Push(x any) { *h = append(*h, x.(inboxItem)) }

func (h *inboxHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = inboxItem{} // drop the envelope reference for the GC
	*h = old[:n-1]
	return item
}
