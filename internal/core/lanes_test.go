package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/codec"
	"govents/internal/filter"
	"govents/internal/obvent"
)

// Ordered tick types spanning the ordering lattice, plus an unordered
// one, for the lane routing and ordering stress tests. Pub/N identify
// the logical publisher and its per-type publication sequence.

type fifoTick struct {
	obvent.Base
	obvent.FIFOOrderBase
	Pub string
	N   int
}

type causalTick struct {
	obvent.Base
	obvent.CausalOrderBase
	Pub string
	N   int
}

type totalTick struct {
	obvent.Base
	obvent.TotalOrderBase
	Pub string
	N   int
}

type freeTick struct {
	obvent.Base
	Pub string
	N   int
}

func registerTickTypes(reg *obvent.Registry) {
	reg.MustRegister(fifoTick{})
	reg.MustRegister(causalTick{})
	reg.MustRegister(totalTick{})
	reg.MustRegister(freeTick{})
}

// encodeFrom encodes an obvent and stamps it with a publisher identity,
// as a remote peer's envelope would arrive.
func encodeFrom(t *testing.T, e *Engine, o obvent.Obvent, pub string) *codec.Envelope {
	t.Helper()
	env, err := e.codec.Encode(o)
	if err != nil {
		t.Fatalf("encode %T: %v", o, err)
	}
	env.Publisher = pub
	return env
}

// TestLaneRoutingSemantics pins the routing rules: causal/total and
// prioritary envelopes go serial (whether identified by wire metadata
// or by the cached class semantics); FIFO and unordered envelopes go
// parallel (FIFO needs only per-publisher order, which the
// publisher-hashed lanes preserve); and one publisher's parallel
// envelopes always share a lane.
func TestLaneRoutingSemantics(t *testing.T) {
	e := NewEngine("routing", NewLocal(), WithDispatchLanes(4))
	t.Cleanup(func() { _ = e.Close() })
	reg := e.Registry()
	reg.MustRegister(StockQuote{})
	reg.MustRegister(prioAlert{})
	registerTickTypes(reg)

	ordered := []obvent.Obvent{
		causalTick{Pub: "p", N: 1},
		totalTick{Pub: "p", N: 1},
	}
	for _, o := range ordered {
		env := encodeFrom(t, e, o, "p")
		if !e.lanes.routeSerial(env) {
			t.Errorf("%T: stamped ordered envelope not routed serial", o)
		}
		// A peer that forgot to stamp the ordering metadata must still
		// be caught by the class-semantics lookup.
		env.Ordering = obvent.NoOrder
		if !e.lanes.routeSerial(env) {
			t.Errorf("%T: unstamped ordered envelope not routed serial", o)
		}
	}

	// FIFO routes parallel — stamped or unstamped — and stays stable on
	// the publisher's lane.
	fifo := encodeFrom(t, e, fifoTick{Pub: "p", N: 1}, "p")
	if e.lanes.routeSerial(fifo) {
		t.Error("stamped FIFO envelope routed serial, want parallel sub-lane")
	}
	fifo.Ordering = obvent.NoOrder
	if e.lanes.routeSerial(fifo) {
		t.Error("unstamped FIFO envelope routed serial (class semantics), want parallel")
	}

	prio := encodeFrom(t, e, prioAlert{Msg: "x", PriorityBase: obvent.PriorityBase{Prio: 3}}, "p")
	if !e.lanes.routeSerial(prio) {
		t.Error("prioritary envelope not routed serial")
	}
	prio.HasPriority = false
	prio.Priority = 0
	if !e.lanes.routeSerial(prio) {
		t.Error("unstamped prioritary envelope not routed serial (class semantics)")
	}

	free := encodeFrom(t, e, StockQuote{StockObvent: StockObvent{Company: "A"}}, "p")
	if e.lanes.routeSerial(free) {
		t.Error("unordered envelope routed serial")
	}

	// Per-publisher lane stability, and a spread across lanes overall.
	lanesSeen := map[int]bool{}
	for p := 0; p < 16; p++ {
		pub := fmt.Sprintf("pub-%d", p)
		env := encodeFrom(t, e, StockQuote{}, pub)
		lane := laneIndex(laneKey(env), len(e.lanes.par))
		for i := 0; i < 5; i++ {
			if got := laneIndex(laneKey(env), len(e.lanes.par)); got != lane {
				t.Fatalf("publisher %s: lane flapped %d -> %d", pub, lane, got)
			}
		}
		lanesSeen[lane] = true
	}
	if len(lanesSeen) < 2 {
		t.Errorf("16 publishers hashed onto %d lane(s), want a spread", len(lanesSeen))
	}

	// A publisher-less envelope falls back to its publication ID.
	anon := encodeFrom(t, e, StockQuote{}, "")
	if laneKey(anon) != anon.ID {
		t.Errorf("publisher-less envelope keyed by %q, want its publication ID %q", laneKey(anon), anon.ID)
	}
}

// TestLaneRoutingZeroAlloc pins the acceptance criterion that routing
// adds zero steady-state allocations: the decision (wire-metadata
// routing, cached class-semantics routing, lane hashing) and then the
// whole trip through a lane of either order, push and pop. The serial
// lane's heap is written over []laneItem for exactly this: container/heap
// boxed every item into an `any`, one allocation per ordered envelope.
func TestLaneRoutingZeroAlloc(t *testing.T) {
	e := NewEngine("route-alloc", NewLocal(), WithDispatchLanes(4))
	t.Cleanup(func() { _ = e.Close() })
	reg := e.Registry()
	reg.MustRegister(StockQuote{})
	reg.MustRegister(prioAlert{})
	registerTickTypes(reg)

	free := encodeFrom(t, e, StockQuote{}, "pub-7")
	ordered := encodeFrom(t, e, causalTick{Pub: "p", N: 1}, "p")
	fifo := encodeFrom(t, e, fifoTick{Pub: "p", N: 1}, "p")
	unstamped := encodeFrom(t, e, totalTick{Pub: "p", N: 1}, "p")
	unstamped.Ordering = obvent.NoOrder

	// Warm the class-semantics cache.
	e.lanes.routeSerial(free)
	e.lanes.routeSerial(unstamped)

	allocs := testing.AllocsPerRun(1000, func() {
		if e.lanes.routeSerial(free) || e.lanes.routeSerial(fifo) {
			t.Fatal("unordered/FIFO routed serial")
		}
		if !e.lanes.routeSerial(ordered) || !e.lanes.routeSerial(unstamped) {
			t.Fatal("ordered not routed serial")
		}
		_ = laneIndex(laneKey(free), len(e.lanes.par))
	})
	if allocs != 0 {
		t.Errorf("routing decision allocates %.1f times per envelope, want 0", allocs)
	}

	// Through the lanes: a bare lane set whose dispatch only counts, so
	// the figure is the lane layer's alone. Each run waits for its
	// envelopes to be popped — AllocsPerRun counts every goroutine's
	// allocations, the lane loops' included.
	var popped atomic.Int64
	ls := newLaneSet(reg, 4, func(*codec.Envelope, *laneState) { popped.Add(1) }, nil, laneConfig{})
	defer ls.close()
	total := encodeFrom(t, e, totalTick{Pub: "p", N: 1}, "p")
	prio := encodeFrom(t, e, prioAlert{Msg: "x", PriorityBase: obvent.PriorityBase{Prio: 3}}, "p")
	if total.Ordering <= obvent.FIFO || !prio.HasPriority {
		t.Fatalf("envelopes not stamped: total ordering %v, prio stamped %v", total.Ordering, prio.HasPriority)
	}
	for _, tc := range []struct {
		name string
		envs []*codec.Envelope
	}{
		{"serial", []*codec.Envelope{total, prio}},
		{"parallel", []*codec.Envelope{free, fifo}},
	} {
		var want int64
		allocs := testing.AllocsPerRun(1000, func() {
			for _, env := range tc.envs {
				ls.route(env)
			}
			want += int64(len(tc.envs))
			for popped.Load() != want {
				runtime.Gosched()
			}
		})
		if allocs != 0 {
			t.Errorf("%s lane: route through push and pop allocates %.2f times per run, want 0", tc.name, allocs)
		}
		popped.Store(0)
	}
	// 1000 runs and AllocsPerRun's warm-up, two envelopes each, per case.
	var parallel uint64
	for i, l := range ls.par {
		parallel += l.stat(i).Enqueued
	}
	if serial := ls.serial.stat(-1).Enqueued; serial != 2002 || parallel != 2002 {
		t.Errorf("serial lane carried %d envelopes and the parallel lanes %d, want 2002 each", serial, parallel)
	}
}

// newWedgedLane starts one lane of the given order whose goroutine is
// parked inside the dispatch of a first "blocker" envelope, so that what
// the test pushes next queues up and the queue's state is fully
// controlled. dispatched returns the IDs dispatched after the blocker, in
// order; release lets the blocker return.
func newWedgedLane(t *testing.T, order laneOrder, cfg laneConfig) (l *lane, dispatched func() []string, release func()) {
	t.Helper()
	var mu sync.Mutex
	var ids []string
	started := make(chan struct{})
	wedge := make(chan struct{})
	l = newLane(order, func(env *codec.Envelope, _ *laneState) {
		if env.ID == "blocker" {
			close(started)
			<-wedge
			return
		}
		mu.Lock()
		ids = append(ids, env.ID)
		mu.Unlock()
	}, nil, 1, cfg, nil)
	l.start()
	l.push(&codec.Envelope{ID: "blocker"}, "b", 0)
	<-started
	return l, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ids...)
	}, func() { close(wedge) }
}

// laneOrders names the two orderings for the tests that drive the one
// lane constructor with both.
var laneOrders = []struct {
	name  string
	order laneOrder
}{{"fifo", arrivalOrder}, {"serial", priorityOrder}}

// TestSerialLanePriorityOvertaking is the deterministic lane-level
// overtaking test: with the lane goroutine blocked on a first envelope,
// later high-priority arrivals must be dispatched before earlier
// low-priority backlog, FIFO among equals.
func TestSerialLanePriorityOvertaking(t *testing.T) {
	l, dispatched, release := newWedgedLane(t, priorityOrder, laneConfig{})
	l.push(&codec.Envelope{ID: "low-1"}, "", 1)
	l.push(&codec.Envelope{ID: "high"}, "", 9)
	l.push(&codec.Envelope{ID: "low-2"}, "", 1)
	release()
	l.close() // drains the backlog before returning

	if got, want := fmt.Sprint(dispatched()), "[high low-1 low-2]"; got != want {
		t.Errorf("dispatch order after the blocker = %v, want %v", got, want)
	}
	if got := l.st.enqueued.Load(); got != 4 {
		t.Errorf("enqueued = %d, want 4", got)
	}
}

// testLaneQueueShrinks wedges a lane of each order, pushes n envelopes
// at it and checks that the queue grew to hold what the configuration
// admits (all n, or the bound) and that draining released the high-water
// backing array.
func testLaneQueueShrinks(t *testing.T, cfg laneConfig, n int) {
	for _, o := range laneOrders {
		t.Run(o.name, func(t *testing.T) {
			l, _, release := newWedgedLane(t, o.order, cfg)
			for i := 0; i < n; i++ {
				l.push(&codec.Envelope{}, "p", i%7)
			}
			want := n
			if cfg.bound > 0 {
				want = cfg.bound
			}
			l.mu.Lock()
			grown, queued := cap(l.q.items), l.q.len()
			l.mu.Unlock()
			if grown < want || queued != want {
				t.Fatalf("backlog did not accumulate: cap=%d queued=%d, want %d", grown, queued, want)
			}
			release()
			l.close()
			if c := cap(l.q.items); c > laneShrinkMin {
				t.Errorf("queue capacity after drain = %d, want <= %d", c, laneShrinkMin)
			}
		})
	}
}

// TestLaneQueuesShrinkAfterBurst pins the memory satellite: a one-time
// backlog spike must not pin its high-water backing array for the
// engine's lifetime, in either order.
func TestLaneQueuesShrinkAfterBurst(t *testing.T) {
	testLaneQueueShrinks(t, laneConfig{}, 5000)
}

// TestFifoLaneSteadyStateMemory: a lane alternating one push and one pop
// must not grow its queue without bound (the head index only advances;
// compaction must reclaim the dead prefix).
func TestFifoLaneSteadyStateMemory(t *testing.T) {
	var n atomic.Int64
	l := newLane(arrivalOrder, func(*codec.Envelope, *laneState) { n.Add(1) }, nil, 1, laneConfig{}, nil)
	l.start()
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 5000; i++ {
		l.push(&codec.Envelope{}, "p", 0)
		for n.Load() != int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("lane stalled at %d/%d", n.Load(), i+1)
			}
			runtime.Gosched()
		}
	}
	l.mu.Lock()
	c := cap(l.q.items)
	l.mu.Unlock()
	l.close()
	if c > laneShrinkMin {
		t.Errorf("steady-state queue capacity = %d, want <= %d", c, laneShrinkMin)
	}
}

// TestOrderingStress is the multi-lane semantics stress test: several
// concurrent publishers interleave FIFO/Causal/Total and unordered
// envelopes into a multi-lane engine (and, mirrored, into a single-lane
// WithNaiveDispatch oracle). Ordered types must preserve per-publisher
// delivery order; unordered types must reach exactly the same
// (subscription, event) delivery set as the oracle.
func TestOrderingStress(t *testing.T) {
	const (
		nPubs   = 8
		nEvents = 120
	)
	reg := obvent.NewRegistry()
	registerTickTypes(reg)

	indexed := NewEngine("indexed", NewLocal(), WithRegistry(reg), WithDispatchLanes(4))
	t.Cleanup(func() { _ = indexed.Close() })
	naive := NewEngine("naive", NewLocal(), WithRegistry(reg), WithNaiveDispatch(), WithDispatchLanes(1))
	t.Cleanup(func() { _ = naive.Close() })

	// Ordered collectors (indexed engine): per-type append-only logs.
	type rec struct {
		pub string
		n   int
	}
	var logMu sync.Mutex
	logs := map[string][]rec{}
	appendLog := func(kind, pub string, n int) {
		logMu.Lock()
		logs[kind] = append(logs[kind], rec{pub, n})
		logMu.Unlock()
	}
	mustActivate := func(sub *Subscription, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	mustActivate(Subscribe(indexed, nil, func(o fifoTick) { appendLog("fifo", o.Pub, o.N) }))
	mustActivate(Subscribe(indexed, nil, func(o causalTick) { appendLog("causal", o.Pub, o.N) }))
	mustActivate(Subscribe(indexed, nil, func(o totalTick) { appendLog("total", o.Pub, o.N) }))

	// Unordered delivery sets, mirrored on both engines: one unfiltered
	// subscription, one remote-filtered, one with an opaque local filter.
	type key struct {
		sub int
		pub string
		n   int
	}
	sets := map[string]map[key]int{"indexed": {}, "naive": {}}
	counts := map[string]*atomic.Int64{"indexed": {}, "naive": {}}
	subscribeSet := func(e *Engine, which string) {
		count := counts[which]
		collect := func(idx int) func(o freeTick) {
			return func(o freeTick) {
				logMu.Lock()
				sets[which][key{idx, o.Pub, o.N}]++
				logMu.Unlock()
				count.Add(1)
			}
		}
		mustActivate(Subscribe(e, nil, collect(0)))
		mustActivate(Subscribe(e, filter.Path("N").Lt(filter.Int(nEvents/2)), collect(1)))
		mustActivate(SubscribeFiltered(e, nil, func(o freeTick) bool { return o.N%3 == 0 }, collect(2)))
	}
	subscribeSet(indexed, "indexed")
	subscribeSet(naive, "naive")

	// Publishers: each goroutine is one logical publisher, delivering
	// the same envelope stream to both engines, as a dissemination
	// substrate would from its receive goroutines.
	var wg sync.WaitGroup
	for p := 0; p < nPubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pub := fmt.Sprintf("pub-%d", p)
			for n := 0; n < nEvents; n++ {
				events := []obvent.Obvent{freeTick{Pub: pub, N: n}}
				switch n % 3 {
				case 0:
					events = append(events, fifoTick{Pub: pub, N: n})
				case 1:
					events = append(events, causalTick{Pub: pub, N: n})
				default:
					events = append(events, totalTick{Pub: pub, N: n})
				}
				for _, o := range events {
					env, err := indexed.codec.Encode(o)
					if err != nil {
						t.Error(err)
						return
					}
					env.Publisher = pub
					indexed.deliver(env)
					naive.deliver(env)
				}
			}
		}(p)
	}
	wg.Wait()

	const total = nPubs * nEvents * 2 // one free + one ordered per event
	// Expected unordered deliveries per engine: the unfiltered sub gets
	// every freeTick, the remote filter passes N < nEvents/2, the local
	// filter passes every third N.
	const wantFree = nPubs*nEvents + nPubs*(nEvents/2) + nPubs*((nEvents+2)/3)
	cond := func() bool {
		return indexed.Stats().EventsIn == total && naive.Stats().EventsIn == total &&
			counts["indexed"].Load() == wantFree && counts["naive"].Load() == wantFree
	}
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: indexed in=%d naive in=%d (want %d) indexed free=%d naive free=%d (want %d)\nindexed lanes=%+v",
				indexed.Stats().EventsIn, naive.Stats().EventsIn, total,
				counts["indexed"].Load(), counts["naive"].Load(), wantFree, indexed.LaneStats())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // catch stragglers / extra deliveries

	logMu.Lock()
	defer logMu.Unlock()

	// Ordered types: per-publisher delivery order == publication order.
	for kind, log := range logs {
		last := map[string]int{}
		for i, r := range log {
			if prev, seen := last[r.pub]; seen && r.n <= prev {
				t.Fatalf("%s: publisher %s delivered out of order at %d: %d after %d", kind, r.pub, i, r.n, prev)
			}
			last[r.pub] = r.n
		}
		if len(log) != nPubs*nEvents/3 {
			t.Errorf("%s: delivered %d, want %d", kind, len(log), nPubs*nEvents/3)
		}
	}

	// Unordered type: exact delivery-set equivalence with the oracle.
	if len(sets["indexed"]) != len(sets["naive"]) {
		t.Fatalf("delivery sets differ in size: indexed %d, naive %d", len(sets["indexed"]), len(sets["naive"]))
	}
	for k, n := range sets["naive"] {
		if sets["indexed"][k] != n {
			t.Errorf("delivery %+v: indexed %d, naive %d", k, sets["indexed"][k], n)
		}
	}

	// The serial lane carried exactly the causal+total traffic (two of
	// every three ordered events); FIFO rides the parallel sub-lanes.
	for _, l := range indexed.LaneStats() {
		if l.Serial && l.Enqueued != nPubs*nEvents*2/3 {
			t.Errorf("serial lane carried %d envelopes, want %d (causal+total only)", l.Enqueued, nPubs*nEvents*2/3)
		}
		if l.Queued != 0 {
			t.Errorf("lane %d: backlog %d after drain", l.Lane, l.Queued)
		}
	}
}

// TestUnstampedOrderedExecutesSerially: an ordered-class envelope whose
// wire metadata was not stamped must not only be routed to the serial
// lane but also executed in order on the subscriber executor (ordered
// deliveries run inline; unordered ones fan out to handler goroutines,
// which would let a slow early delivery be overtaken).
func TestUnstampedOrderedExecutesSerially(t *testing.T) {
	e := NewEngine("unstamped", NewLocal(), WithDispatchLanes(4))
	t.Cleanup(func() { _ = e.Close() })
	registerTickTypes(e.Registry())

	var mu sync.Mutex
	var order []int
	sub, err := Subscribe(e, nil, func(o totalTick) {
		if o.N == 0 {
			// Give later deliveries every chance to overtake if they
			// were (incorrectly) run on their own goroutines.
			time.Sleep(20 * time.Millisecond)
		}
		mu.Lock()
		order = append(order, o.N)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}

	const n = 10
	for i := 0; i < n; i++ {
		env := encodeFrom(t, e, totalTick{Pub: "p", N: i}, "p")
		env.Ordering = 0 // the peer forgot to stamp the wire metadata
		e.deliver(env)
	}
	waitFor(t, 10*time.Second, "all delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("delivery order = %v, want ascending", order)
		}
	}
}

// TestEngineCloseDrainsLanes: closing an engine with backlog on several
// lanes must terminate (the Broadcast-on-close regression) and leave
// every lane drained.
func TestEngineCloseDrainsLanes(t *testing.T) {
	e := NewEngine("close-drain", NewLocal(), WithDispatchLanes(4))
	reg := e.Registry()
	reg.MustRegister(StockQuote{})
	registerTickTypes(reg)

	for p := 0; p < 8; p++ {
		pub := fmt.Sprintf("pub-%d", p)
		for n := 0; n < 50; n++ {
			env := encodeFrom(t, e, freeTick{Pub: pub, N: n}, pub)
			e.deliver(env)
			env = encodeFrom(t, e, totalTick{Pub: pub, N: n}, pub)
			e.deliver(env)
		}
	}
	done := make(chan struct{})
	go func() {
		_ = e.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("engine close hung with lane backlog")
	}
	if st := e.Stats(); st.EventsIn != 800 {
		t.Errorf("EventsIn = %d, want 800 (lanes must drain before close returns)", st.EventsIn)
	}
}

// TestLaneStatsFold: Engine.Stats must equal the fold of LaneStats.
func TestLaneStatsFold(t *testing.T) {
	e := NewEngine("fold", NewLocal(), WithDispatchLanes(3))
	t.Cleanup(func() { _ = e.Close() })
	e.Registry().MustRegister(StockQuote{})
	registerTickTypes(e.Registry())
	var got atomic.Int64
	sub, err := Subscribe(e, nil, func(freeTick) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}

	for p := 0; p < 6; p++ {
		pub := fmt.Sprintf("pub-%d", p)
		for n := 0; n < 20; n++ {
			e.deliver(encodeFrom(t, e, freeTick{Pub: pub, N: n}, pub))
		}
	}
	e.deliver(encodeFrom(t, e, totalTick{Pub: "pub-0", N: 0}, "pub-0"))

	waitFor(t, 10*time.Second, "all dispatched", func() bool {
		return e.Stats().EventsIn == 121 && got.Load() == 120
	})
	var fold DispatchStats
	var routed uint64
	serialSeen := false
	for _, l := range e.LaneStats() {
		fold.add(l.Stats)
		routed += l.Enqueued
		if l.Serial {
			serialSeen = true
			if l.Enqueued != 1 {
				t.Errorf("serial lane enqueued = %d, want 1", l.Enqueued)
			}
		}
	}
	if !serialSeen {
		t.Fatal("no serial lane in LaneStats")
	}
	got2 := e.Stats()
	// Codec-level wire counters are engine-wide, not per-lane; blank them
	// so the comparison checks exactly the lane-folded fields.
	got2.WireCompiles, got2.WireRejects = 0, 0
	got2.WireEncodes, got2.WireDecodes = 0, 0
	got2.PartialDecodes, got2.WireMaterializations = 0, 0
	if got2 != fold {
		t.Errorf("Stats() = %+v, fold of LaneStats = %+v", got2, fold)
	}
	if routed != 121 {
		t.Errorf("sum of lane Enqueued = %d, want 121", routed)
	}
	if n := e.DispatchLanes(); n != 3 {
		t.Errorf("DispatchLanes() = %d, want 3", n)
	}
}
