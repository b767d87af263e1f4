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

// TestLaneRoutingSemantics pins laneOf: a causal or total class stays
// on its class's lane whoever published it, whether its envelopes are
// stamped with the ordering or found ordered through the cached class
// semantics; every other envelope — FIFO, prioritary and unordered, and
// FIFO whose ordering was not stamped — stays on its publisher's lane,
// and the publishers spread over the lanes.
func TestLaneRoutingSemantics(t *testing.T) {
	e := NewEngine("routing", NewLocal(), WithDispatchLanes(4))
	t.Cleanup(func() { _ = e.Close() })
	reg := e.Registry()
	reg.MustRegister(StockQuote{})
	reg.MustRegister(prioAlert{})
	registerTickTypes(reg)
	n := len(e.lanes.lanes)

	for _, o := range []obvent.Obvent{causalTick{N: 1}, totalTick{N: 1}} {
		var want int
		for p := 0; p < 16; p++ {
			env := encodeFrom(t, e, o, fmt.Sprintf("pub-%d", p))
			if p == 0 {
				want = e.lanes.laneOf(env)
			}
			if got := e.lanes.laneOf(env); got != want {
				t.Errorf("%T from publisher %d on lane %d, want its class's lane %d", o, p, got, want)
			}
			// A peer that forgot to stamp the ordering metadata must still
			// be caught by the class-semantics lookup.
			env.Ordering = obvent.NoOrder
			if got := e.lanes.laneOf(env); got != want {
				t.Errorf("unstamped %T from publisher %d on lane %d, want its class's lane %d", o, p, got, want)
			}
		}
	}

	lanesSeen := map[int]bool{}
	for p := 0; p < 16; p++ {
		pub := fmt.Sprintf("pub-%d", p)
		want := laneIndex(pub, n)
		lanesSeen[want] = true
		for _, o := range []obvent.Obvent{
			fifoTick{N: 1},
			prioAlert{Msg: "x", PriorityBase: obvent.PriorityBase{Prio: 3}},
			StockQuote{},
		} {
			env := encodeFrom(t, e, o, pub)
			for i := 0; i < 5; i++ {
				if env.Name.N++; e.lanes.laneOf(env) != want {
					t.Fatalf("%T from publisher %s off its lane %d", o, pub, want)
				}
			}
			env.Ordering, env.HasPriority, env.Priority = obvent.NoOrder, false, 0
			if got := e.lanes.laneOf(env); got != want {
				t.Errorf("unstamped %T from publisher %s on lane %d, want %d", o, pub, got, want)
			}
		}
	}
	if len(lanesSeen) < 2 {
		t.Errorf("16 publishers hashed onto %d lane(s), want a spread", len(lanesSeen))
	}

	// A publisher-less envelope falls back to its name's count: the
	// lanes take such envelopes in turn, and nothing is rendered.
	anon := encodeFrom(t, e, StockQuote{}, "")
	for c := range uint64(2 * n) {
		anon.Name.N = c
		if got, want := e.lanes.laneOf(anon), int(c%uint64(n)); got != want {
			t.Errorf("publisher-less envelope of count %d on lane %d, want %d", c, got, want)
		}
	}
}

// TestLaneRoutingZeroAlloc pins that routing adds zero steady-state
// allocations: the decision (wire-metadata routing, cached
// class-semantics routing, hashing) and then the whole trip through a
// lane, push and pop.
func TestLaneRoutingZeroAlloc(t *testing.T) {
	e := NewEngine("route-alloc", NewLocal(), WithDispatchLanes(4))
	t.Cleanup(func() { _ = e.Close() })
	reg := e.Registry()
	reg.MustRegister(StockQuote{})
	reg.MustRegister(prioAlert{})
	registerTickTypes(reg)

	unstamped := encodeFrom(t, e, totalTick{Pub: "p", N: 1}, "p")
	unstamped.Ordering = obvent.NoOrder
	envs := []*codec.Envelope{
		encodeFrom(t, e, StockQuote{}, "pub-7"),
		encodeFrom(t, e, causalTick{Pub: "p", N: 1}, "p"),
		encodeFrom(t, e, fifoTick{Pub: "p", N: 1}, "p"),
		encodeFrom(t, e, prioAlert{Msg: "x", PriorityBase: obvent.PriorityBase{Prio: 3}}, "p"),
		unstamped,
	}
	for _, env := range envs {
		e.lanes.laneOf(env) // warm the class-semantics cache
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, env := range envs {
			_ = e.lanes.laneOf(env)
		}
	})
	if allocs != 0 {
		t.Errorf("routing decision allocates %.1f times per run, want 0", allocs)
	}

	// Through the lanes: a bare lane set whose dispatch only counts, so
	// the figure is the lane layer's alone. Each run waits for its
	// envelopes to be popped — AllocsPerRun counts every goroutine's
	// allocations, the lane loops' included.
	var popped atomic.Int64
	ls := newLaneSet(reg, 4, func(*codec.Envelope, *laneState) { popped.Add(1) }, nil, laneConfig{})
	defer ls.close()
	var want int64
	allocs = testing.AllocsPerRun(1000, func() {
		for _, env := range envs {
			ls.route(env)
		}
		want += int64(len(envs))
		for popped.Load() != want {
			runtime.Gosched()
		}
	})
	if allocs != 0 {
		t.Errorf("route through push and pop allocates %.2f times per run, want 0", allocs)
	}
	var routed uint64
	for _, st := range ls.laneStats() {
		routed += st.Enqueued
	}
	// 1000 runs and AllocsPerRun's warm-up.
	if routed != uint64(1001*len(envs)) {
		t.Errorf("lanes carried %d envelopes, want %d", routed, 1001*len(envs))
	}
}

// newWedgedLane starts one lane whose goroutine is parked inside the
// dispatch of a first "blocker" envelope, so that what the test pushes
// next queues up and the queue's state is fully controlled. dispatched
// returns the IDs dispatched after the blocker, in order; release lets
// the blocker return.
func newWedgedLane(t *testing.T, cfg laneConfig) (l *lane, dispatched func() []string, release func()) {
	t.Helper()
	var mu sync.Mutex
	var ids []string
	started := make(chan struct{})
	wedge := make(chan struct{})
	l = newLane(func(env *codec.Envelope, _ *laneState) {
		if env.ID == "blocker" {
			close(started)
			<-wedge
			return
		}
		mu.Lock()
		ids = append(ids, env.ID)
		mu.Unlock()
	}, nil, 1, cfg)
	l.push(&codec.Envelope{ID: "blocker"})
	<-started
	return l, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ids...)
	}, func() { close(wedge) }
}

// testLaneQueueShrinks wedges a lane, pushes n envelopes at it and
// checks that the queue grew to hold what the configuration admits (all
// n, or the bound), and that once the backlog drained, single envelopes
// give the high-water backing array back within the windows of the
// queue's rule (queue).
func testLaneQueueShrinks(t *testing.T, cfg laneConfig, n int) {
	l, _, release := newWedgedLane(t, cfg)
	for i := 0; i < n; i++ {
		l.push(&codec.Envelope{})
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
	queuedLen := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.q.len()
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i <= 3*queueWindow; i++ {
		for queuedLen() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("lane stalled with %d queued after %d single envelopes", queuedLen(), i)
			}
			runtime.Gosched()
		}
		if i < 3*queueWindow {
			l.push(&codec.Envelope{})
		}
	}
	l.close()
	if c := cap(l.q.items); c > queueKeepMin {
		t.Errorf("queue capacity after drain and %d single envelopes = %d, want <= %d", 3*queueWindow, c, queueKeepMin)
	}
}

// TestLaneQueuesShrinkAfterBurst pins the memory satellite: a one-time
// backlog spike must not pin its high-water backing array for the
// engine's lifetime.
func TestLaneQueuesShrinkAfterBurst(t *testing.T) {
	t.Run("fifo", func(t *testing.T) { testLaneQueueShrinks(t, laneConfig{}, 5000) })
}

// TestFifoLaneSteadyStateMemory: a lane alternating one push and one pop
// must not grow its queue without bound (the head index only advances;
// compaction must reclaim the dead prefix).
func TestFifoLaneSteadyStateMemory(t *testing.T) {
	var n atomic.Int64
	l := newLane(func(*codec.Envelope, *laneState) { n.Add(1) }, nil, 1, laneConfig{})
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 5000; i++ {
		l.push(&codec.Envelope{})
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
	if c > queueKeepMin {
		t.Errorf("steady-state queue capacity = %d, want <= %d", c, queueKeepMin)
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

	for _, l := range indexed.LaneStats() {
		if l.Queued != 0 {
			t.Errorf("lane %d: backlog %d after drain", l.Lane, l.Queued)
		}
	}
}

// TestUnstampedOrderedExecutesSerially: an ordered-class envelope whose
// wire metadata was not stamped must not only be routed to its class's
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

// TestOrderedClassesDoNotShareAStalledLane: two ordered classes that
// hash onto different lanes do not wait for each other. A local filter
// wedges the lane of causal class A on A's first event; every event of
// total class B is still delivered, in order, while the wedge holds, and
// A's events follow in order once it lifts.
func TestOrderedClassesDoNotShareAStalledLane(t *testing.T) {
	const lanes, n = 4, 20
	e := NewEngine("stalled", NewLocal(), WithDispatchLanes(lanes))
	t.Cleanup(func() { _ = e.Close() })
	registerTickTypes(e.Registry())
	classA := encodeFrom(t, e, causalTick{}, "p").Type
	classB := encodeFrom(t, e, totalTick{}, "p").Type
	if laneIndex(classA, lanes) == laneIndex(classB, lanes) {
		t.Fatalf("%s and %s hash onto one lane of %d; pick two classes that do not", classA, classB, lanes)
	}

	wedge := make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(wedge) })
	t.Cleanup(unwedge)
	var wedged atomic.Bool
	var mu sync.Mutex
	var gotA, gotB []int
	subA, err := SubscribeFiltered(e, nil, func(o causalTick) bool {
		if o.N == 0 {
			wedged.Store(true)
			<-wedge
		}
		return true
	}, func(o causalTick) {
		mu.Lock()
		gotA = append(gotA, o.N)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := Subscribe(e, nil, func(o totalTick) {
		mu.Lock()
		gotB = append(gotB, o.N)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []*Subscription{subA, subB} {
		if err := sub.Activate(); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < n; i++ {
		if err := Publish(e, causalTick{Pub: "a", N: i}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			waitFor(t, 5*time.Second, "class A's lane wedged", wedged.Load)
		}
	}
	for i := 0; i < n; i++ {
		if err := Publish(e, totalTick{Pub: "b", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	inOrder := func(what string, got []int) {
		t.Helper()
		for i, v := range got {
			if v != i {
				t.Fatalf("%s delivered %v, want 0..%d in order", what, got, n-1)
			}
		}
	}
	waitFor(t, 5*time.Second, "class B delivered while class A's lane is wedged", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gotB) == n
	})
	mu.Lock()
	inOrder("class B", gotB)
	if len(gotA) != 0 {
		t.Errorf("class A delivered %v through its wedged filter", gotA)
	}
	mu.Unlock()

	unwedge()
	waitFor(t, 5*time.Second, "class A delivered once its lane is released", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gotA) == n
	})
	mu.Lock()
	defer mu.Unlock()
	inOrder("class A", gotA)
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
	for _, l := range e.LaneStats() {
		fold.add(l.Stats)
		routed += l.Enqueued
	}
	got2 := e.Stats()
	// Codec-level wire counters are engine-wide, not per-lane; blank them
	// so the comparison checks exactly the lane-folded fields.
	got2.WireCompiles, got2.WireRejects = 0, 0
	got2.WireEncodes, got2.WireDecodes = 0, 0
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
