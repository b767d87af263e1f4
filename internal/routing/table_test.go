package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"govents/internal/accessor"
	"govents/internal/allocs"
	"govents/internal/core"
	"govents/internal/filter"
	"govents/internal/obvent"
)

// Test obvent hierarchy.

type stockObvent struct {
	obvent.Base
	Company string
	Price   float64
	Amount  int
}

func (s stockObvent) GetCompany() string { return s.Company }
func (s stockObvent) GetPrice() float64  { return s.Price }

type stockQuote struct {
	stockObvent
}

type otherObvent struct {
	obvent.Base
	N int
}

// flatQuote declares Price directly (not promoted through embedding):
// reflect resolves direct fields without allocating, so the alloc-pin
// test measures the routing plane, not reflect's promoted-field path.
type flatQuote struct {
	obvent.Base
	Company string
	Price   float64
}

func (q flatQuote) GetPrice() float64 { return q.Price }

func newReg(t testing.TB) *obvent.Registry {
	t.Helper()
	reg := obvent.NewRegistry()
	reg.MustRegister(stockObvent{})
	reg.MustRegister(stockQuote{})
	reg.MustRegister(otherObvent{})
	return reg
}

func quoteClass() string { return obvent.TypeName(obvent.TypeOf[stockQuote]()) }
func stockClass() string { return obvent.TypeName(obvent.TypeOf[stockObvent]()) }

// info builds a SubscriptionInfo with an optional filter.
func info(t testing.TB, id, typeName string, f *filter.Expr) core.SubscriptionInfo {
	t.Helper()
	si := core.SubscriptionInfo{ID: id, TypeName: typeName}
	if f != nil {
		data, err := filter.MarshalCanonical(f)
		if err != nil {
			t.Fatal(err)
		}
		si.Filter = data
	}
	return si
}

func priceLt(v float64) *filter.Expr { return filter.Path("GetPrice").Lt(filter.Float(v)) }

func dests(t *Table, class string, ev any) []string {
	return t.Destinations(class, func() any { return ev }, nil)
}

func TestSnapshotRoutesByFilter(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), priceLt(100))})
	tb.ApplySnapshot("node-b", 1, []core.SubscriptionInfo{info(t, "b1", quoteClass(), priceLt(500))})
	tb.ApplySnapshot("node-c", 1, []core.SubscriptionInfo{info(t, "c1", quoteClass(), nil)})

	cheap := stockQuote{stockObvent{Price: 50}}
	mid := stockQuote{stockObvent{Price: 300}}
	dear := stockQuote{stockObvent{Price: 900}}
	if got := dests(tb, quoteClass(), cheap); !reflect.DeepEqual(got, []string{"node-a", "node-b", "node-c"}) {
		t.Errorf("cheap: %v", got)
	}
	if got := dests(tb, quoteClass(), mid); !reflect.DeepEqual(got, []string{"node-b", "node-c"}) {
		t.Errorf("mid: %v", got)
	}
	if got := dests(tb, quoteClass(), dear); !reflect.DeepEqual(got, []string{"node-c"}) {
		t.Errorf("dear: %v", got)
	}
}

func TestConformanceExpandsToSupertypeSubscriptions(t *testing.T) {
	tb := NewTable(newReg(t))
	// node-a subscribes to the base type; a published subtype must route
	// to it.
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", stockClass(), nil)})
	if got := dests(tb, quoteClass(), stockQuote{}); !reflect.DeepEqual(got, []string{"node-a"}) {
		t.Errorf("subtype routing: %v", got)
	}
	// The reverse does not hold: a base-class event does not conform to
	// a subtype subscription.
	tb2 := NewTable(newReg(t))
	tb2.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})
	if got := dests(tb2, stockClass(), stockObvent{}); len(got) != 0 {
		t.Errorf("base class routed to subtype subscription: %v", got)
	}
}

func TestFilterlessSubscriptionShortCircuitsNode(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{
		info(t, "a1", quoteClass(), priceLt(10)), // would reject
		info(t, "a2", quoteClass(), nil),         // filterless: node always matches
	})
	ev := stockQuote{stockObvent{Price: 999}}
	if got := dests(tb, quoteClass(), ev); !reflect.DeepEqual(got, []string{"node-a"}) {
		t.Errorf("Destinations = %v", got)
	}
	// The short-circuited node must not even cost a compound evaluation.
	st := tb.StatsByClass()[quoteClass()]
	if st.CompoundEvals != 0 {
		t.Errorf("CompoundEvals = %d for an always-match-only plan", st.CompoundEvals)
	}
}

func TestSnapshotIdempotentAndNewestWins(t *testing.T) {
	tb := NewTable(newReg(t))
	subs2 := []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)}
	if res := tb.ApplySnapshot("node-a", 2, subs2); !res.Applied || !res.NewNode {
		t.Fatalf("first snapshot: %+v", res)
	}
	// A stale snapshot (older seq) must not regress the state.
	if res := tb.ApplySnapshot("node-a", 1, nil); res.Applied || res.NewNode {
		t.Fatalf("stale snapshot applied: %+v", res)
	}
	if got := dests(tb, quoteClass(), stockQuote{}); !reflect.DeepEqual(got, []string{"node-a"}) {
		t.Errorf("state regressed: %v", got)
	}
	// Re-applying the same seq is a no-op.
	if res := tb.ApplySnapshot("node-a", 2, nil); res.Applied {
		t.Fatalf("duplicate snapshot applied: %+v", res)
	}
	if tb.Stats().AdsStale != 2 {
		t.Errorf("AdsStale = %d, want 2", tb.Stats().AdsStale)
	}
}

func TestDeltaChainsInAndOutOfOrder(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})

	// Delta 3 (base 2) arrives before delta 2 (base 1): dropped as stale,
	// and not kept for later.
	if res := tb.ApplyDelta("node-a", 3, 2, nil, []string{"a2"}); res.Applied || res.NewNode {
		t.Fatalf("out-of-order delta: %+v", res)
	}
	if got := tb.SubscriptionCount(""); got != 1 {
		t.Fatalf("off-base delta mutated state: %d subs", got)
	}
	// Delta 2 applies on its base; the dropped delta 3 does not follow it.
	if res := tb.ApplyDelta("node-a", 2, 1, []core.SubscriptionInfo{info(t, "a2", quoteClass(), nil), info(t, "a3", quoteClass(), nil)}, nil); !res.Applied {
		t.Fatalf("chaining delta: %+v", res)
	}
	if got := tb.SubscriptionCount(""); got != 3 {
		t.Errorf("after delta 2: %d subs, want 3", got)
	}
	// Delta 3 sent again, now on its base, applies.
	if res := tb.ApplyDelta("node-a", 3, 2, nil, []string{"a2"}); !res.Applied {
		t.Fatalf("delta on its base: %+v", res)
	}
	if got := tb.SubscriptionCount(""); got != 2 {
		t.Errorf("after delta 3: %d subs, want 2", got)
	}
	st := tb.Stats()
	if st.AdsApplied != 3 || st.AdsStale != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeltaBeforeSnapshotIsDropped(t *testing.T) {
	tb := NewTable(newReg(t))
	// A delta from a never-seen node cannot apply (no base) but marks
	// the node as witnessed.
	res := tb.ApplyDelta("node-a", 2, 1, []core.SubscriptionInfo{info(t, "a2", quoteClass(), nil)}, nil)
	if !res.NewNode || res.Applied {
		t.Fatalf("delta before snapshot: %+v", res)
	}
	if st := tb.Stats(); st.AdsStale != 1 {
		t.Errorf("AdsStale = %d, want 1", st.AdsStale)
	}
	if got := dests(tb, quoteClass(), stockQuote{}); len(got) != 0 {
		t.Fatalf("unbased delta routed: %v", got)
	}
	// The snapshot arrives; the delta before it was not kept.
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})
	if got := tb.SubscriptionCount(""); got != 1 {
		t.Errorf("after snapshot: %d subs, want 1", got)
	}
	// The deltas after it apply.
	if res := tb.ApplyDelta("node-a", 2, 1, []core.SubscriptionInfo{info(t, "a2", quoteClass(), nil)}, nil); !res.Applied {
		t.Fatalf("delta on the snapshot: %+v", res)
	}
	if got := tb.SubscriptionCount(""); got != 2 {
		t.Errorf("after delta: %d subs, want 2", got)
	}
}

func TestSnapshotMendsBrokenChain(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})
	// Delta 2 never arrives: delta 3 is off its base and dropped.
	tb.ApplyDelta("node-a", 3, 2, []core.SubscriptionInfo{info(t, "a3", quoteClass(), nil)}, nil)
	// The full snapshot at seq 4 restores the node's state, and the
	// deltas after it apply.
	if res := tb.ApplySnapshot("node-a", 4, []core.SubscriptionInfo{info(t, "a9", quoteClass(), nil)}); !res.Applied {
		t.Fatalf("mending snapshot: %+v", res)
	}
	if res := tb.ApplyDelta("node-a", 5, 4, nil, []string{"a9"}); !res.Applied {
		t.Fatalf("delta after the snapshot: %+v", res)
	}
	if got := tb.SubscriptionCount(""); got != 0 {
		t.Errorf("after the mending snapshot and its delta: %d subs, want 0", got)
	}
	// The delta the snapshot overtook is stale for good.
	if res := tb.ApplyDelta("node-a", 3, 2, []core.SubscriptionInfo{info(t, "a3", quoteClass(), nil)}, nil); res.Applied {
		t.Fatalf("overtaken delta applied: %+v", res)
	}
	if st := tb.Stats(); st.AdsStale != 2 || st.AdsApplied != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRemoveNode(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})
	tb.ApplySnapshot("node-b", 1, []core.SubscriptionInfo{info(t, "b1", quoteClass(), nil)})
	if got := dests(tb, quoteClass(), stockQuote{}); len(got) != 2 {
		t.Fatalf("before removal: %v", got)
	}
	tb.RetainNodes([]string{"node-b"}) // node-a leaves the membership
	if got := dests(tb, quoteClass(), stockQuote{}); !reflect.DeepEqual(got, []string{"node-b"}) {
		t.Errorf("after removal: %v", got)
	}
}

func TestFailOpenOnUndecodableEvent(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), priceLt(10))})
	tb.ApplySnapshot("node-b", 1, []core.SubscriptionInfo{info(t, "b1", quoteClass(), nil)})
	got := tb.Destinations(quoteClass(), func() any { return nil }, nil)
	if !reflect.DeepEqual(got, []string{"node-a", "node-b"}) {
		t.Errorf("fail-open destinations = %v", got)
	}
	st := tb.StatsByClass()[quoteClass()]
	if st.FallbackEvals != 1 || st.CompoundEvals != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnparsableFilterFailsOpen(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{{ID: "a1", TypeName: quoteClass(), Filter: []byte("not a filter")}})
	if got := dests(tb, quoteClass(), stockQuote{stockObvent{Price: 999}}); !reflect.DeepEqual(got, []string{"node-a"}) {
		t.Errorf("unparsable filter should fail open to the node: %v", got)
	}
}

func TestOneCompoundEvalPerEventRegardlessOfSubCount(t *testing.T) {
	tb := NewTable(newReg(t))
	const nodes, per = 8, 50
	for n := 0; n < nodes; n++ {
		var subs []core.SubscriptionInfo
		for i := 0; i < per; i++ {
			id := fmt.Sprintf("n%d-s%03d", n, i)
			subs = append(subs, info(t, id, quoteClass(), priceLt(float64((i+1)*20))))
		}
		tb.ApplySnapshot(fmt.Sprintf("node-%d", n), 1, subs)
	}
	ev := stockQuote{stockObvent{Price: 500}}
	for i := 0; i < 10; i++ {
		dests(tb, quoteClass(), ev)
	}
	st := tb.StatsByClass()[quoteClass()]
	if st.CompoundEvals != 10 {
		t.Errorf("CompoundEvals = %d for 10 events over %d subscriptions, want 10", st.CompoundEvals, nodes*per)
	}
	if st.EventsRouted != 10 {
		t.Errorf("EventsRouted = %d, want 10", st.EventsRouted)
	}
	if st.PlansCompiled != 1 {
		t.Errorf("PlansCompiled = %d, want 1 (no ads between events)", st.PlansCompiled)
	}
}

func TestPlanInvalidationOnAdAndRegistryChange(t *testing.T) {
	reg := newReg(t)
	tb := NewTable(reg)
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})
	ev := stockQuote{}
	dests(tb, quoteClass(), ev)
	if st := tb.StatsByClass()[quoteClass()]; st.PlansCompiled != 1 {
		t.Fatalf("PlansCompiled = %d", st.PlansCompiled)
	}
	// A new ad invalidates the plan...
	tb.ApplySnapshot("node-b", 1, []core.SubscriptionInfo{info(t, "b1", quoteClass(), nil)})
	if got := dests(tb, quoteClass(), ev); !reflect.DeepEqual(got, []string{"node-a", "node-b"}) {
		t.Errorf("after new ad: %v", got)
	}
	if st := tb.StatsByClass()[quoteClass()]; st.PlansCompiled != 2 {
		t.Errorf("PlansCompiled = %d after ad, want 2", st.PlansCompiled)
	}
	// ...and so does a registry registration (conformance may widen).
	type lateQuote struct{ stockQuote }
	reg.MustRegister(lateQuote{})
	dests(tb, quoteClass(), ev)
	if st := tb.StatsByClass()[quoteClass()]; st.PlansCompiled != 3 {
		t.Errorf("PlansCompiled = %d after registration, want 3", st.PlansCompiled)
	}
}

func TestNodesPrunedCounter(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), priceLt(100))})
	tb.ApplySnapshot("node-b", 1, []core.SubscriptionInfo{info(t, "b1", quoteClass(), priceLt(100))})
	dests(tb, quoteClass(), stockQuote{stockObvent{Price: 500}}) // both pruned
	dests(tb, quoteClass(), stockQuote{stockObvent{Price: 50}})  // none pruned
	if st := tb.StatsByClass()[quoteClass()]; st.NodesPruned != 2 {
		t.Errorf("NodesPruned = %d, want 2", st.NodesPruned)
	}
}

func TestNodesForIgnoresFilters(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), priceLt(1))})
	tb.ApplySnapshot("node-b", 1, []core.SubscriptionInfo{info(t, "b1", quoteClass(), nil)})
	tb.ApplySnapshot("node-c", 1, []core.SubscriptionInfo{info(t, "c1", stockClass(), priceLt(1))})
	if got := tb.NodesFor(quoteClass(), nil); !reflect.DeepEqual(got, []string{"node-a", "node-b", "node-c"}) {
		t.Errorf("NodesFor = %v", got)
	}
	if got := tb.NodesFor(obvent.TypeName(obvent.TypeOf[otherObvent]()), nil); len(got) != 0 {
		t.Errorf("NodesFor unrelated class = %v", got)
	}
}

func TestForEachConforming(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{
		info(t, "a1", quoteClass(), nil),
		info(t, "a2", stockClass(), nil),
	})
	tb.ApplySnapshot("node-b", 1, []core.SubscriptionInfo{
		{ID: "b1", TypeName: obvent.TypeName(obvent.TypeOf[otherObvent]()), DurableID: "dur-b"},
	})
	var got []string
	tb.ForEachConforming(quoteClass(), func(node string, inf core.SubscriptionInfo) {
		got = append(got, node+"/"+inf.ID)
	})
	want := map[string]bool{"node-a/a1": true, "node-a/a2": true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Errorf("ForEachConforming = %v", got)
	}
}

// TestDestinationsEquivalenceProperty checks the compound routing
// decision against the per-entry oracle across randomized tables whose
// subscriptions are all filterless, all filtered, or both; and that the
// fail-open fallback and NodesFor name every candidate node.
func TestDestinationsEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 90; round++ {
		tb := NewTable(newReg(t))
		nNodes := 1 + rng.Intn(5)
		var candidates []string
		for n := 0; n < nNodes; n++ {
			var subs []core.SubscriptionInfo
			for i := 0; i < rng.Intn(6); i++ {
				id := fmt.Sprintf("n%d-s%d", n, i)
				typeName := quoteClass()
				if rng.Intn(3) == 0 {
					typeName = stockClass()
				}
				var f *filter.Expr
				kind := rng.Intn(5)
				switch round % 3 {
				case 1: // only filterless
					kind = 0
				case 2: // only filtered
					kind = 1 + rng.Intn(4)
				}
				switch kind {
				case 0: // filterless
				case 1:
					f = priceLt(float64(rng.Intn(1000)))
				case 2:
					f = filter.And(priceLt(float64(rng.Intn(1000))), filter.Path("GetCompany").Contains(filter.Str("Tel")))
				case 3:
					// Unevaluable path: exercises node-level fail-open.
					f = filter.Or(filter.Path("Ghost").Eq(filter.Int(1)), priceLt(float64(rng.Intn(500))))
				default:
					f = filter.Or(priceLt(float64(rng.Intn(500))), filter.Path("Amount").Ge(filter.Int(int64(rng.Intn(10)))))
				}
				subs = append(subs, info(t, id, typeName, f))
			}
			node := fmt.Sprintf("node-%d", n)
			tb.ApplySnapshot(node, 1, subs)
			if len(subs) > 0 {
				candidates = append(candidates, node)
			}
		}
		if got := tb.NodesFor(quoteClass(), nil); fmt.Sprint(got) != fmt.Sprint(candidates) {
			t.Fatalf("round %d: NodesFor %v, candidates %v", round, got, candidates)
		}
		if got := tb.Destinations(quoteClass(), func() any { return nil }, nil); fmt.Sprint(got) != fmt.Sprint(candidates) {
			t.Fatalf("round %d: undecodable event routed to %v, candidates %v", round, got, candidates)
		}
		for e := 0; e < 10; e++ {
			ev := stockQuote{stockObvent{
				Company: []string{"Telco Mobiles", "Acme", "Telstar"}[rng.Intn(3)],
				Price:   float64(rng.Intn(1000)),
				Amount:  rng.Intn(12),
			}}
			got := dests(tb, quoteClass(), ev)
			want := tb.DestinationsNaive(quoteClass(), ev)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d event %+v: compound %v, per-entry %v", round, ev, got, want)
			}
		}
	}
}

func TestDestinationsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reg := obvent.NewRegistry()
	reg.MustRegister(flatQuote{})
	// What Subscribe[flatQuote] does on a node: the class's accessors
	// with a basic result become direct calls.
	accessor.Register[flatQuote]()
	class := obvent.TypeName(obvent.TypeOf[flatQuote]())
	tb := NewTable(reg)
	for n := 0; n < 16; n++ {
		var subs []core.SubscriptionInfo
		for i := 0; i < 16; i++ {
			// A field path and the accessor-method path of the paper's
			// encapsulated form (LP2): both resolve with zero
			// allocations, so this test pins the routing plane's own.
			path := "Price"
			if i%2 == 1 {
				path = "GetPrice"
			}
			f := filter.Path(path).Lt(filter.Float(float64((i + 1) * 60)))
			subs = append(subs, info(t, fmt.Sprintf("n%d-s%d", n, i), class, f))
		}
		tb.ApplySnapshot(fmt.Sprintf("node-%02d", n), 1, subs)
	}
	var ev any = flatQuote{Company: "Telco", Price: 400}
	decode := func() any { return ev }
	buf := make([]string, 0, 32)
	buf = tb.Destinations(class, decode, buf[:0]) // warm plan + pools
	n := allocs.PerRun(200, func() {
		buf = tb.Destinations(class, decode, buf[:0])
	})
	if n > 0 {
		t.Errorf("steady-state Destinations allocates %.3f objects/op, want 0", n)
	}
	if len(buf) == 0 {
		t.Fatal("no destinations matched; workload broken")
	}
	if st := tb.Stats(); st.AccessorFallbacks != 0 {
		t.Errorf("AccessorFallbacks = %d, want 0", st.AccessorFallbacks)
	}
}

// TestErroringFilterFailsOpenAtNodeLevel guards the per-subscription
// fail-open semantics through the per-node Or: a subscription whose
// filter cannot evaluate against the event must not suppress the node,
// neither alone nor by poisoning a sibling subscription's disjunct.
func TestErroringFilterFailsOpenAtNodeLevel(t *testing.T) {
	tb := NewTable(newReg(t))
	errFilter := filter.Path("NoSuchAccessor").Lt(filter.Float(1))
	// node-a: an erroring filter next to a passing one ("a0" sorts
	// before "a1", so the error term leads the Or).
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{
		info(t, "a0", quoteClass(), errFilter),
		info(t, "a1", quoteClass(), priceLt(100)),
	})
	// node-b: only an erroring filter.
	tb.ApplySnapshot("node-b", 1, []core.SubscriptionInfo{info(t, "b0", quoteClass(), errFilter)})
	// node-c: only a rejecting filter.
	tb.ApplySnapshot("node-c", 1, []core.SubscriptionInfo{info(t, "c0", quoteClass(), priceLt(1))})

	ev := stockQuote{stockObvent{Price: 50}}
	got := dests(tb, quoteClass(), ev)
	want := tb.DestinationsNaive(quoteClass(), ev)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("compound %v, per-entry oracle %v", got, want)
	}
	if !reflect.DeepEqual(got, []string{"node-a", "node-b"}) {
		t.Errorf("Destinations = %v, want [node-a node-b]", got)
	}
}

func TestOffBaseDeltasHoldNothing(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})
	gen := tb.Gen()
	// A hostile peer sends deltas on bases that never come.
	for i := uint64(0); i < 500; i++ {
		tb.ApplyDelta("node-a", 1000+i, 900+i, []core.SubscriptionInfo{info(t, "x", quoteClass(), priceLt(1))}, nil)
	}
	st := tb.Stats()
	if st.AdsStale != 500 || st.FiltersParsed != 0 {
		t.Errorf("500 off-base deltas: AdsStale = %d, FiltersParsed = %d, want 500 and 0", st.AdsStale, st.FiltersParsed)
	}
	if g := tb.Gen(); g != gen {
		t.Errorf("off-base deltas moved the generation %d -> %d", gen, g)
	}
	tb.mu.Lock()
	seq := tb.nodes["node-a"].seq
	tb.mu.Unlock()
	if seq != 1 || tb.SubscriptionCount("") != 1 {
		t.Errorf("applied state moved: seq %d, %d subs", seq, tb.SubscriptionCount(""))
	}
	// The delta on the applied base still applies.
	if res := tb.ApplyDelta("node-a", 2, 1, nil, []string{"a1"}); !res.Applied {
		t.Fatalf("delta on its base: %+v", res)
	}
	if got := tb.SubscriptionCount(""); got != 0 {
		t.Errorf("SubscriptionCount = %d, want 0", got)
	}
}

// TestRoutingStatsAccessorPrograms pins the routing plane's view of the
// compile step: class plans' compound matchers compile accessor
// programs on first event sight, surfaced through Table.Stats.
func TestRoutingStatsAccessorPrograms(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(flatQuote{})
	class := obvent.TypeName(obvent.TypeOf[flatQuote]())
	tb := NewTable(reg)
	var subs []core.SubscriptionInfo
	for i := 0; i < 4; i++ {
		f := filter.Path("Price").Lt(filter.Float(float64((i + 1) * 100)))
		subs = append(subs, info(t, fmt.Sprintf("s%d", i), class, f))
	}
	tb.ApplySnapshot("node-a", 1, subs)

	if st := tb.Stats(); st.AccessorPrograms != 0 {
		t.Errorf("AccessorPrograms = %d before any event, want 0 (compiled on first sight)", st.AccessorPrograms)
	}
	var ev any = flatQuote{Company: "Telco", Price: 50}
	decode := func() any { return ev }
	if dests := tb.Destinations(class, decode, nil); len(dests) != 1 {
		t.Fatalf("Destinations = %v, want node-a", dests)
	}
	st := tb.Stats()
	if st.AccessorPrograms != 1 {
		t.Errorf("AccessorPrograms = %d, want 1 (one unique path, one event type)", st.AccessorPrograms)
	}
	if st.AccessorFallbacks != 0 {
		t.Errorf("AccessorFallbacks = %d, want 0", st.AccessorFallbacks)
	}
}

// TestPerClassStatsFoldAccessorCounters pins the per-class breakout of
// the accessor counters: StatsByClass must report the same compile
// counts the aggregate Stats folds from the class plan.
func TestPerClassStatsFoldAccessorCounters(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(flatQuote{})
	class := obvent.TypeName(obvent.TypeOf[flatQuote]())
	tb := NewTable(reg)
	tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{
		info(t, "s0", class, filter.Path("Price").Lt(filter.Float(100))),
	})
	var ev any = flatQuote{Company: "Telco", Price: 50}
	if dests := tb.Destinations(class, func() any { return ev }, nil); len(dests) != 1 {
		t.Fatalf("Destinations = %v", dests)
	}
	if got := tb.StatsByClass()[class].AccessorPrograms; got != 1 {
		t.Errorf("StatsByClass.AccessorPrograms = %d, want 1", got)
	}
}

// TestFiltersParsedOncePerAdvertisedBytes is the counted scaling test
// of ad ingestion: a node that subscribes N times in a row, advertising
// each subscription in a delta and its whole set in a snapshot after
// every eight (as dace does), costs this table N filter parses, one per
// subscription. A snapshot parses only the records it changes: none
// when it repeats what is held, and equal filter bytes in one
// advertisement are parsed once between them.
func TestFiltersParsedOncePerAdvertisedBytes(t *testing.T) {
	for _, n := range []int{64, 512} {
		tb := NewTable(newReg(t))
		var all []core.SubscriptionInfo
		seq := uint64(0)
		for i := 0; i < n; i++ {
			all = append(all, info(t, fmt.Sprintf("a%d", i), quoteClass(), priceLt(float64(i%10))))
			seq++
			before := tb.Stats().FiltersParsed
			if i%9 == 0 {
				if res := tb.ApplySnapshot("node-a", seq, all); !res.Applied {
					t.Fatalf("snapshot %d not applied", seq)
				}
			} else if res := tb.ApplyDelta("node-a", seq, seq-1, all[i:], nil); !res.Applied {
				t.Fatalf("delta %d not applied", seq)
			}
			if got := tb.Stats().FiltersParsed - before; got != 1 {
				t.Fatalf("ad %d of %d subscriptions, one of them new, parsed %d filters", seq, len(all), got)
			}
		}
		if got := tb.Stats().FiltersParsed; got != uint64(n) {
			t.Errorf("%d sequential subscriptions parsed %d filters, want %d", n, got, n)
		}
		// A snapshot that repeats the set (a heartbeat), a delta already
		// overtaken and a snapshot that drops a subscription parse nothing.
		tb.ApplySnapshot("node-a", seq+1, all)
		tb.ApplyDelta("node-a", seq, seq-1, all[:1], nil)
		tb.ApplySnapshot("node-a", seq+2, all[1:])
		// One that changes a filter parses that filter.
		all[5] = info(t, all[5].ID, quoteClass(), priceLt(1e6))
		tb.ApplySnapshot("node-a", seq+3, all[1:])
		if got := tb.Stats().FiltersParsed; got != uint64(n)+1 {
			t.Errorf("parsed %d filters, want %d: the %d subscriptions' and the one that changed", got, n+1, n)
		}
		// A newcomer's first snapshot: eleven distinct filters by now,
		// eleven parses.
		tb.ApplySnapshot("node-b", 1, all)
		if got := tb.Stats().FiltersParsed; got != uint64(n)+12 {
			t.Errorf("a first snapshot of %d subscriptions with 11 distinct filters parsed %d", n, got-uint64(n)-1)
		}
		if got := dests(tb, quoteClass(), stockQuote{stockObvent{Price: 0.5}}); !reflect.DeepEqual(got, []string{"node-a", "node-b"}) {
			t.Errorf("destinations = %v", got)
		}
	}
}
