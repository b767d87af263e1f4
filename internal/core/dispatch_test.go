package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/allocs"
	"govents/internal/codec"
	"govents/internal/filter"
	"govents/internal/matching"
	"govents/internal/obvent"
)

// subSpec describes one subscription for the transparency reference
// loop: everything the naive per-subscription matching rule needs.
type subSpec struct {
	target reflect.Type
	remote *filter.Expr
	local  func(obvent.Obvent) bool
	active bool
}

// randLeaf draws a leaf filter from a pool that exercises the threshold
// index (shared and distinct numeric thresholds), string operators,
// direct conditions, and the error paths (missing accessors, type
// mismatches) whose poisoning semantics must match filter.Evaluate.
func randLeaf(rng *rand.Rand) *filter.Expr {
	switch rng.Intn(12) {
	case 0:
		return filter.Path("GetPrice").Lt(filter.Float(float64(rng.Intn(10)) * 25))
	case 1:
		return filter.Path("GetPrice").Ge(filter.Float(float64(rng.Intn(10)) * 25))
	case 2:
		return filter.Path("Price").Gt(filter.Float(float64(rng.Intn(200))))
	case 3:
		return filter.Path("GetAmount").Le(filter.Int(int64(rng.Intn(50))))
	case 4:
		return filter.Path("GetCompany").Contains(filter.Str("Telco"))
	case 5:
		return filter.Path("Company").Eq(filter.Str("Acme"))
	case 6:
		return filter.Path("Company").HasPrefix(filter.Str("Ba"))
	case 7:
		return filter.Path("GetPrice").Eq(filter.Float(float64(rng.Intn(8)) * 50))
	case 8:
		return filter.Path("Missing").Eq(filter.Int(1)) // evaluation error
	case 9:
		return filter.Path("GetCompany").Lt(filter.Int(5)) // type mismatch
	case 10:
		return filter.True()
	default:
		return filter.False()
	}
}

// randFilter draws a random expression tree of bounded depth.
func randFilter(rng *rand.Rand, depth int) *filter.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return randLeaf(rng)
	}
	switch rng.Intn(3) {
	case 0:
		n := 2 + rng.Intn(2)
		kids := make([]*filter.Expr, n)
		for i := range kids {
			kids[i] = randFilter(rng, depth-1)
		}
		return filter.And(kids...)
	case 1:
		n := 2 + rng.Intn(2)
		kids := make([]*filter.Expr, n)
		for i := range kids {
			kids[i] = randFilter(rng, depth-1)
		}
		return filter.Or(kids...)
	default:
		return filter.Not(randFilter(rng, depth-1))
	}
}

// TestDispatchTransparency is the delivery-set equivalence property:
// for a randomized population of subscriptions — concrete, supertype
// (embedding) and abstract (interface) targets, remote filters, opaque
// local filters, inactive members — the engine delivers exactly the
// (subscription, event) pairs that the naive reference rule
// (Registry.ConformsTo + filter.Evaluate + local predicate) produces.
// It runs against both the indexed pipeline and the retained naive
// path, so WithNaiveDispatch stays a valid oracle.
func TestDispatchTransparency(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"indexed", nil},
		{"naive", []Option{WithNaiveDispatch()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testDispatchTransparency(t, tc.opts...)
		})
	}
}

// testDispatchTransparency runs the property over three populations: 7
// in 10 subscriptions with a remote filter (classes with filterless
// candidates, filtered ones, or both), none, and all of them.
func testDispatchTransparency(t *testing.T, opts ...Option) {
	for _, filtered := range []int{7, 0, 10} {
		testDispatchPopulation(t, filtered, opts...)
	}
}

func testDispatchPopulation(t *testing.T, filteredOf10 int, opts ...Option) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine("transparency", NewLocal(), opts...)
	t.Cleanup(func() { _ = e.Close() })
	reg := e.Registry()
	reg.MustRegister(StockObvent{})
	reg.MustRegister(StockQuote{})
	reg.MustRegister(StockRequest{})
	reg.MustRegister(SpotPrice{})
	reg.MustRegister(MarketPrice{})

	targets := []reflect.Type{
		reflect.TypeOf(StockQuote{}),
		reflect.TypeOf(StockObvent{}),
		reflect.TypeOf(StockRequest{}),
		reflect.TypeOf(SpotPrice{}),
		obvent.TypeOf[Priced](), // abstract (interface) subscription
	}

	const nSubs = 40
	specs := make([]*subSpec, nSubs)
	var mu sync.Mutex
	got := make(map[[2]int]int) // (sub index, event tag) -> deliveries

	for i := 0; i < nSubs; i++ {
		spec := &subSpec{target: targets[rng.Intn(len(targets))]}
		if rng.Intn(10) < filteredOf10 {
			spec.remote = randFilter(rng, 2)
		}
		if rng.Intn(10) < 3 {
			parity := rng.Intn(2)
			spec.local = func(o obvent.Obvent) bool {
				v, ok := As[StockObvent](o)
				return ok && v.Amount%2 == parity
			}
		}
		spec.active = rng.Intn(10) < 8
		specs[i] = spec

		idx := i
		sub, err := e.SubscribeDynamic(spec.target, spec.remote, spec.local, func(o obvent.Obvent) {
			v, ok := As[StockObvent](o)
			if !ok {
				t.Errorf("sub %d: delivered obvent %T lacks StockObvent view", idx, o)
				return
			}
			mu.Lock()
			got[[2]int{idx, v.Amount}]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		if spec.active {
			if err := sub.Activate(); err != nil {
				t.Fatalf("activate %d: %v", i, err)
			}
		} else if rng.Intn(2) == 0 {
			// Half of the inactive members were live once: activate and
			// deactivate so stale table entries would be caught.
			if err := sub.Activate(); err != nil {
				t.Fatalf("activate %d: %v", i, err)
			}
			if err := sub.Deactivate(); err != nil {
				t.Fatalf("deactivate %d: %v", i, err)
			}
		}
	}

	// Publish a mixed event stream; Amount is the unique event tag.
	companies := []string{"Telco Mobiles", "Acme", "Banco", "Telco Fixed", "Zeta"}
	const nEvents = 150
	events := make([]obvent.Obvent, nEvents)
	for i := 0; i < nEvents; i++ {
		base := StockObvent{
			Company: companies[rng.Intn(len(companies))],
			Price:   float64(rng.Intn(10)) * 25,
			Amount:  i,
		}
		switch rng.Intn(5) {
		case 0:
			events[i] = StockQuote{StockObvent: base}
		case 1:
			events[i] = base
		case 2:
			events[i] = StockRequest{StockObvent: base}
		case 3:
			events[i] = SpotPrice{StockRequest: StockRequest{StockObvent: base}}
		default:
			events[i] = MarketPrice{StockRequest: StockRequest{StockObvent: base}}
		}
		if err := e.Publish(events[i]); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	// Reference delivery set: the naive per-subscription rule.
	want := make(map[[2]int]int)
	for i, ev := range events {
		evName := obvent.TypeName(reflect.TypeOf(ev))
		for si, spec := range specs {
			if !spec.active {
				continue
			}
			if !reg.ConformsTo(evName, obvent.TypeName(spec.target)) {
				continue
			}
			if spec.remote != nil {
				ok, err := filter.Evaluate(spec.remote, ev)
				if err != nil || !ok {
					continue
				}
			}
			if spec.local != nil && !spec.local(ev) {
				continue
			}
			want[[2]int{si, i}]++
		}
	}

	expected := 0
	for _, n := range want {
		expected += n
	}
	waitFor(t, 10*time.Second, "all deliveries", func() bool {
		if e.Stats().EventsIn < nEvents {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, n := range got {
			total += n
		}
		return total >= expected
	})
	time.Sleep(20 * time.Millisecond) // catch spurious extra deliveries

	mu.Lock()
	defer mu.Unlock()
	for pair, n := range want {
		if got[pair] != n {
			t.Errorf("sub %d event %d: delivered %d times, want %d", pair[0], pair[1], got[pair], n)
		}
	}
	for pair, n := range got {
		if want[pair] == 0 {
			t.Errorf("sub %d event %d: delivered %d times, want none", pair[0], pair[1], n)
		}
	}
	st := e.Stats()
	if st.DecodeErrors != 0 {
		t.Errorf("DecodeErrors = %d, want 0", st.DecodeErrors)
	}
	if st.Delivered != uint64(expected) {
		t.Errorf("Delivered = %d, want %d", st.Delivered, expected)
	}
}

// TestDispatchStats checks every counter of the DispatchStats satellite:
// events in, matches, deliveries, expired drops and decode errors (which
// the seed engine used to swallow silently).
func TestDispatchStats(t *testing.T) {
	e := newLocalEngine(t)
	c := subscribeCollector[StockQuote](t, e, filter.Path("GetPrice").Lt(filter.Float(100)))

	_ = Publish(e, StockQuote{StockObvent: StockObvent{Company: "Acme", Price: 50}})
	_ = Publish(e, StockQuote{StockObvent: StockObvent{Company: "Acme", Price: 150}})
	_ = Publish(e, StockQuote{StockObvent: StockObvent{Company: "Acme", Price: 60}})
	// Born long ago with a tiny TTL: dropped as expired at dispatch.
	_ = Publish(e, timelyTick{TimelyBase: obvent.TimelyBase{TTL: time.Millisecond, BirthTime: time.Now().Add(-time.Second)}, N: 1})
	// A corrupt payload for a class with live candidates: decode error.
	e.deliver(&codec.Envelope{
		Name:    codec.Name{Inc: 1, N: 1},
		Type:    obvent.TypeName(reflect.TypeOf(StockQuote{})),
		Payload: []byte{0xff, 0x00, 0xba, 0xad},
	})

	waitFor(t, 5*time.Second, "stats settled", func() bool {
		st := e.Stats()
		return st.EventsIn == 5 && st.DecodeErrors == 1 && c.count() == 2
	})
	st := e.Stats()
	if st.Expired != 1 {
		t.Errorf("Expired = %d, want 1", st.Expired)
	}
	if st.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", st.Delivered)
	}
}

// TestLateRegistrationExtendsConformance pins the bucket-invalidation
// rule: a dispatch bucket compiled before a supertype was registered is
// recompiled once the registry generation moves, so conformance answers
// never go stale. (The naive path gets this for free by querying
// ConformsTo per event; the indexed path must invalidate its cache.)
func TestLateRegistrationExtendsConformance(t *testing.T) {
	e := NewEngine("late-reg", NewLocal())
	t.Cleanup(func() { _ = e.Close() })
	reg := e.Registry()
	reg.MustRegister(SpotPrice{}) // StockObvent deliberately unregistered

	c := &collector[obvent.Obvent]{}
	sub, err := e.SubscribeDynamic(reflect.TypeOf(StockObvent{}), nil, nil, func(o obvent.Obvent) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.got = append(c.got, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}

	// While StockObvent is unregistered, SpotPrice does not conform to it.
	mk := func(n int) SpotPrice {
		return SpotPrice{StockRequest: StockRequest{StockObvent: StockObvent{Company: "Acme", Amount: n}}}
	}
	if err := e.Publish(mk(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "first event dispatched", func() bool { return e.Stats().EventsIn >= 1 })
	time.Sleep(10 * time.Millisecond)
	if n := c.count(); n != 0 {
		t.Fatalf("delivered %d obvents before supertype registration, want 0", n)
	}

	// Registering the embedded supertype extends the subtype closure;
	// the cached bucket must be recompiled, not reused.
	reg.MustRegister(StockObvent{})
	if err := e.Publish(mk(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "post-registration delivery", func() bool { return c.count() == 1 })
}

// TestConcurrentActivationTablePublication is the regression test for
// the copy-on-write table's lost-update hazard: concurrent
// activate/deactivate calls must publish tables in snapshot order, or a
// stale table could overwrite a newer one and silently drop an active
// subscription from dispatch. After the churn settles with every
// subscription active, a final event must reach all of them.
func TestConcurrentActivationTablePublication(t *testing.T) {
	e := newLocalEngine(t)
	const nSubs = 8
	counts := make([]atomic.Int64, nSubs)
	subs := make([]*Subscription, nSubs)
	for i := 0; i < nSubs; i++ {
		i := i
		sub, err := Subscribe(e, nil, func(q StockQuote) {
			if q.Amount == -1 {
				counts[i].Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}

	var wg sync.WaitGroup
	for _, sub := range subs {
		wg.Add(1)
		go func(s *Subscription) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := s.Activate(); err != nil {
					t.Error(err)
					return
				}
				if err := s.Deactivate(); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Activate(); err != nil {
				t.Error(err)
			}
		}(sub)
	}
	wg.Wait()

	// All subscriptions are now active; the published table must
	// contain every one of them.
	if err := Publish(e, StockQuote{StockObvent: StockObvent{Company: "Acme", Amount: -1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "final event reaches all subscriptions", func() bool {
		for i := range counts {
			if counts[i].Load() == 0 {
				return false
			}
		}
		return true
	})
}

// TestUnknownWireTypeNotCached pins the bucket-cache admission rule:
// env.Type comes off the wire, so names the registry does not know must
// not be cached (a peer sending unique garbage names would otherwise
// grow the table without bound), while registered classes are.
func TestUnknownWireTypeNotCached(t *testing.T) {
	e := newLocalEngine(t)
	c := subscribeCollector[StockQuote](t, e, nil)

	for i := 0; i < 3; i++ {
		e.deliver(&codec.Envelope{Name: codec.Name{Inc: 1, N: uint64(i)}, Type: fmt.Sprintf("garbage.Type%d", i), Payload: []byte{1}})
	}
	_ = Publish(e, StockQuote{StockObvent: StockObvent{Company: "Acme", Price: 1}})
	waitFor(t, 5*time.Second, "traffic dispatched", func() bool {
		return e.Stats().EventsIn >= 4 && c.count() == 1
	})

	cached := map[string]bool{}
	e.table.Load().buckets.Range(func(class string, _ *matching.Compound) bool {
		cached[class] = true
		return true
	})
	for name := range cached {
		if len(name) >= 7 && name[:7] == "garbage" {
			t.Errorf("bucket cached for unknown wire type %q", name)
		}
	}
	if !cached[obvent.TypeName(reflect.TypeOf(StockQuote{}))] {
		t.Errorf("bucket not cached for registered class; cache = %v", cached)
	}
}

// TestStatsAccessorConcurrent exercises Stats() under live traffic so
// the counters run under -race.
func TestStatsAccessorConcurrent(t *testing.T) {
	e := newLocalEngine(t)
	c := subscribeCollector[StockQuote](t, e, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = e.Stats()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for i := 0; i < 50; i++ {
		if err := Publish(e, StockQuote{StockObvent: StockObvent{Company: fmt.Sprintf("c%d", i), Price: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	waitFor(t, 5*time.Second, "all delivered", func() bool { return c.count() == 50 })
	if st := e.Stats(); st.Delivered != 50 {
		t.Errorf("Delivered = %d, want 50", st.Delivered)
	}
}

// bookQuote is a pointer-bearing class for the compiled-copier
// integration tests: clones must come off the compiled deep copier, not
// a per-clone gob decode.
type bookQuote struct {
	obvent.Base
	Company string
	Levels  []float64
	Info    *tickInfo
}

type tickInfo struct {
	Venue string
}

// loopQuote is a recursive class: it compiles under the wire program's
// nesting bound.
type loopQuote struct {
	obvent.Base
	V    int
	Next *loopQuote
}

// TestDispatchSourceScratchAllocs pins the allocation budget of the
// indexed dispatch loop: with the clone source resolved into per-lane
// scratch (never heap-allocated per envelope, regardless of escape
// analysis) and filters compiled to accessor programs, a full dispatch
// — route, decode-once, compound match over 50 subscriptions —
// allocates no more than the bare Source+Clone sequence it wraps.
// Everything the matcher itself touches is allocation-free: field paths
// (resolved from the payload), and the accessor method GetPrice, which
// Subscribe[StockQuote] turned into a direct call on the decoded event.
func TestDispatchSourceScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, path := range []string{"Price", "GetPrice"} {
		e := newLocalEngine(t)
		for i := 0; i < 50; i++ {
			// None of these match the published price: the measured work
			// is route + decode-once + compound match, with no
			// deliveries.
			f := filter.Path(path).Gt(filter.Float(10000 + float64(i)))
			sub, err := Subscribe(e, f, func(q StockQuote) {})
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Activate(); err != nil {
				t.Fatal(err)
			}
		}
		env, err := e.codec.Encode(StockQuote{StockObvent: StockObvent{Company: "Acme", Price: 50}})
		if err != nil {
			t.Fatal(err)
		}
		ls := &laneState{}
		e.dispatch(env, ls) // warm: bucket, compound plan, accessor programs, scratch

		dispatchAllocs := allocs.PerRun(300, func() {
			e.dispatch(env, ls)
		})
		baseline := allocs.PerRun(300, func() {
			src, err := e.codec.Source(env)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.Clone(); err != nil {
				t.Fatal(err)
			}
		})
		if dispatchAllocs > baseline {
			t.Errorf("%s: dispatch allocates %.3f/op vs Source+Clone baseline %.3f/op; the matching pipeline must add zero allocations", path, dispatchAllocs, baseline)
		}
		if st := e.Stats(); st.AccessorFallbacks != 0 {
			t.Errorf("%s: AccessorFallbacks = %d, want 0 (the path must compile)", path, st.AccessorFallbacks)
		}
	}
}

// TestEngineStatsCompileCounters pins the observability satellite:
// Engine.Stats surfaces the accessor programs compiled by the live
// dispatch table and the codec's wire compile/reject decisions.
func TestEngineStatsCompileCounters(t *testing.T) {
	e := newLocalEngine(t)
	e.Registry().MustRegister(bookQuote{})
	e.Registry().MustRegister(loopQuote{})

	_ = subscribeCollector[StockQuote](t, e, filter.Path("GetPrice").Lt(filter.Float(100)))
	book := subscribeCollector[bookQuote](t, e, nil)
	loop := subscribeCollector[loopQuote](t, e, nil)

	_ = Publish(e, StockQuote{StockObvent: StockObvent{Company: "Acme", Price: 50}})
	_ = Publish(e, bookQuote{Company: "Acme", Levels: []float64{1, 2}, Info: &tickInfo{Venue: "X"}})
	_ = Publish(e, loopQuote{V: 1, Next: &loopQuote{V: 2}})
	waitFor(t, 5*time.Second, "all classes delivered", func() bool {
		return book.count() == 1 && loop.count() == 1 && e.Stats().Delivered >= 3
	})

	st := e.Stats()
	if st.AccessorPrograms == 0 {
		t.Errorf("AccessorPrograms = 0, want > 0 after filtered dispatch")
	}
	if st.WireCompiles != 3 || st.WireRejects != 0 {
		t.Errorf("WireCompiles = %d, WireRejects = %d; want 3 (StockQuote, bookQuote, recursive loopQuote) and 0",
			st.WireCompiles, st.WireRejects)
	}
	if got := loop.all()[0]; got.Next == nil || got.Next.V != 2 {
		t.Errorf("delivery mangled recursive obvent: %+v", got)
	}
}

// TestClonesAreIndependentAcrossSubscribers is the end-to-end obvent
// local uniqueness check (§2.1.2) for a pointer-bearing class: two
// subscribers receive clones that are equal in content but share no
// pointees.
func TestClonesAreIndependentAcrossSubscribers(t *testing.T) {
	e := newLocalEngine(t)
	e.Registry().MustRegister(bookQuote{})
	c1 := subscribeCollector[bookQuote](t, e, nil)
	c2 := subscribeCollector[bookQuote](t, e, nil)

	in := bookQuote{Company: "Acme", Levels: []float64{9, 8}, Info: &tickInfo{Venue: "X"}}
	if err := Publish(e, in); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "both subscribers delivered", func() bool {
		return c1.count() == 1 && c2.count() == 1
	})
	a, b := c1.all()[0], c2.all()[0]
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("clones differ: %+v vs %+v", a, b)
	}
	if a.Info == b.Info {
		t.Error("clones share a pointee: local uniqueness violated")
	}
	if &a.Levels[0] == &b.Levels[0] {
		t.Error("clones share slice backing: local uniqueness violated")
	}
	a.Info.Venue = "MUT"
	a.Levels[0] = -1
	if b.Info.Venue != "X" || b.Levels[0] != 9 {
		t.Errorf("mutation leaked across subscribers: %+v", b)
	}
}

// TestEveryMatchHoldsItsOwnObject: each match of a class with a slice
// and a pointer decodes an object of its own. With 1, 2 and 5 matches,
// every handler writes through everything it was given: each must have
// seen the event as published (nothing another handler wrote, on this
// envelope or the one before), hold an object of its own, and have seen
// what the naive oracle's handlers saw.
func TestEveryMatchHoldsItsOwnObject(t *testing.T) {
	type seen struct {
		Sub    int
		Levels []float64
		Venue  string
	}
	run := func(t *testing.T, matches int, opts ...Option) (views []seen, objs []bookQuote) {
		e := NewEngine("test-node", NewLocal(), opts...)
		t.Cleanup(func() { _ = e.Close() })
		e.Registry().MustRegister(bookQuote{})
		var mu sync.Mutex
		for i := 0; i < matches; i++ {
			sub, err := Subscribe(e, nil, func(q bookQuote) {
				mu.Lock()
				defer mu.Unlock()
				views = append(views, seen{i, append([]float64(nil), q.Levels...), q.Info.Venue})
				q.Levels[0], q.Info.Venue = float64(-i-1), fmt.Sprint("mut-", i)
				objs = append(objs, q)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Activate(); err != nil {
				t.Fatal(err)
			}
		}
		for ev := 0; ev < 2; ev++ {
			if err := Publish(e, bookQuote{Company: "Acme", Levels: []float64{9, 8}, Info: &tickInfo{Venue: "X"}}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "every match handled", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(views) == (ev+1)*matches
			})
		}
		sort.Slice(views, func(a, b int) bool { return views[a].Sub < views[b].Sub })
		return views, objs
	}
	for _, matches := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("matches=%d", matches), func(t *testing.T) {
			views, objs := run(t, matches)
			for _, v := range views {
				if !reflect.DeepEqual(v.Levels, []float64{9, 8}) || v.Venue != "X" {
					t.Errorf("subscription %d was handed another handler's writes: %+v", v.Sub, v)
				}
			}
			for a := range objs {
				for b := a + 1; b < len(objs); b++ {
					if &objs[a].Levels[0] == &objs[b].Levels[0] || objs[a].Info == objs[b].Info {
						t.Errorf("deliveries %d and %d share a backing array or a pointee", a, b)
					}
				}
			}
			if oracle, _ := run(t, matches, WithNaiveDispatch()); !reflect.DeepEqual(views, oracle) {
				t.Errorf("indexed handlers saw %+v\nnaive handlers saw %+v", views, oracle)
			}
		})
	}
}
