package matching

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"govents/internal/allocs"
	"govents/internal/filter"
	"govents/internal/wire"
)

type quote struct {
	Company string
	Price   float64
	Amount  int
}

// Accessor methods (the paper's encapsulated form, LP2), so tests can
// exercise method-path programs alongside raw field paths.
func (q quote) GetPrice() float64 { return q.Price }

func (q quote) GetCompany() string { return q.Company }

// AddrPrice has a pointer receiver, which a quote value (as a decoded
// event is) does not reach: a path naming it fails on one, also when
// the event is materialized in place.
func (q *quote) AddrPrice() float64 { return q.Price }

// build returns a compound over filters, failing the test on a
// validation error.
func build(t testing.TB, filters map[string]*filter.Expr) *Compound {
	t.Helper()
	c := New()
	if err := c.AddBatch(filters); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMatchBasic(t *testing.T) {
	c := build(t, map[string]*filter.Expr{
		"cheap": filter.Path("Price").Lt(filter.Float(100)),
		"telco": filter.Path("Company").Contains(filter.Str("Telco")),
		"both": filter.And(
			filter.Path("Price").Lt(filter.Float(100)),
			filter.Path("Company").Contains(filter.Str("Telco")),
		),
	})

	got := c.Match(quote{Company: "Telco Mobiles", Price: 80})
	want := []string{"both", "cheap", "telco"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Match = %v, want %v", got, want)
	}

	got = c.Match(quote{Company: "Acme", Price: 80})
	if !reflect.DeepEqual(got, []string{"cheap"}) {
		t.Errorf("Match = %v", got)
	}

	got = c.Match(quote{Company: "Telco", Price: 200})
	if !reflect.DeepEqual(got, []string{"telco"}) {
		t.Errorf("Match = %v", got)
	}
}

func TestMatchTrueFilter(t *testing.T) {
	c := build(t, map[string]*filter.Expr{"all": filter.True()})
	if got := c.Match(quote{}); !reflect.DeepEqual(got, []string{"all"}) {
		t.Errorf("Match = %v", got)
	}
}

func TestAddReplaces(t *testing.T) {
	c := build(t, map[string]*filter.Expr{"s": filter.Path("Price").Lt(filter.Float(10))})
	if err := c.AddBatch(map[string]*filter.Expr{"s": filter.Path("Price").Gt(filter.Float(10))}); err != nil {
		t.Fatal(err)
	}
	if got := c.Match(quote{Price: 5}); len(got) != 0 {
		t.Errorf("old filter still active: %v", got)
	}
	if got := c.Match(quote{Price: 15}); !reflect.DeepEqual(got, []string{"s"}) {
		t.Errorf("Match = %v", got)
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	c := build(t, map[string]*filter.Expr{"ok": filter.True()})
	if err := c.AddBatch(map[string]*filter.Expr{"bad": filter.And(), "fine": nil}); err == nil {
		t.Fatal("expected validation error")
	}
	if got := c.Stats().Subscriptions; got != 1 {
		t.Errorf("failed AddBatch mutated the set: %d entries", got)
	}
}

func TestStatsFactoring(t *testing.T) {
	// 50 subscriptions sharing one condition verbatim.
	filters := map[string]*filter.Expr{}
	for i := 0; i < 50; i++ {
		filters[fmt.Sprintf("s%d", i)] = filter.And(
			filter.Path("Company").Contains(filter.Str("Telco")),
			filter.Path("Price").Lt(filter.Float(float64(i))),
		)
	}
	c := build(t, filters)
	st := c.Stats()
	if st.Subscriptions != 50 {
		t.Errorf("Subscriptions = %d", st.Subscriptions)
	}
	if st.TotalConds != 100 {
		t.Errorf("TotalConds = %d", st.TotalConds)
	}
	// 1 shared Contains + 50 distinct thresholds.
	if st.UniqueConds != 51 {
		t.Errorf("UniqueConds = %d, want 51", st.UniqueConds)
	}
	if st.IndexedConds != 50 {
		t.Errorf("IndexedConds = %d, want 50", st.IndexedConds)
	}
	// Price and Company only.
	if st.UniquePaths != 2 {
		t.Errorf("UniquePaths = %d, want 2", st.UniquePaths)
	}
}

func TestThresholdIndexAllOperators(t *testing.T) {
	c := build(t, map[string]*filter.Expr{
		"lt": filter.Path("Price").Lt(filter.Float(100)),
		"le": filter.Path("Price").Le(filter.Float(100)),
		"gt": filter.Path("Price").Gt(filter.Float(100)),
		"ge": filter.Path("Price").Ge(filter.Float(100)),
		"eq": filter.Path("Price").Eq(filter.Float(100)),
		"ne": filter.Path("Price").Ne(filter.Float(100)),
	})

	tests := []struct {
		price float64
		want  []string
	}{
		{50, []string{"le", "lt", "ne"}},
		{100, []string{"eq", "ge", "le"}},
		{150, []string{"ge", "gt", "ne"}},
	}
	for _, tt := range tests {
		got := c.Match(quote{Price: tt.price})
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("price %v: Match = %v, want %v", tt.price, got, tt.want)
		}
	}
}

func TestMixedIntFloatThresholds(t *testing.T) {
	c := build(t, map[string]*filter.Expr{
		"int":   filter.Path("Amount").Lt(filter.Int(10)),
		"float": filter.Path("Amount").Lt(filter.Float(9.5)),
	})
	got := c.Match(quote{Amount: 9})
	if !reflect.DeepEqual(got, []string{"float", "int"}) {
		t.Errorf("Match = %v", got)
	}
}

func TestErrorPoisonsOnlyAffectedSubscriptions(t *testing.T) {
	c := build(t, map[string]*filter.Expr{
		"good":        filter.Path("Price").Ge(filter.Float(0)),
		"missing":     filter.Path("NoSuchField").Eq(filter.Int(1)),
		"not-missing": filter.Not(filter.Path("NoSuchField").Eq(filter.Int(1))),
	})
	got := c.Match(quote{Price: 1})
	// "missing" errors -> rejected. "not-missing" must ALSO be
	// rejected: filter.Evaluate propagates the error through Not
	// rather than negating an error into acceptance.
	if !reflect.DeepEqual(got, []string{"good"}) {
		t.Errorf("Match = %v, want [good]", got)
	}
}

// --- transparency property: Match ≡ MatchNaive on random filters ---

// randExpr builds a random filter over the quote fields.
func randExpr(r *rand.Rand, depth int) *filter.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		return randLeaf(r)
	}
	switch r.Intn(4) {
	case 0:
		return filter.And(randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return filter.Or(randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return filter.Not(randExpr(r, depth-1))
	default:
		return randLeaf(r)
	}
}

func randLeaf(r *rand.Rand) *filter.Expr {
	ops := []filter.CmpOp{filter.OpEq, filter.OpNe, filter.OpLt, filter.OpLe, filter.OpGt, filter.OpGe}
	switch r.Intn(5) {
	case 0:
		return filter.Path("Price").Cmp(ops[r.Intn(len(ops))], filter.Float(float64(r.Intn(20))))
	case 1:
		return filter.Path("Amount").Cmp(ops[r.Intn(len(ops))], filter.Int(int64(r.Intn(20))))
	case 2:
		return filter.Path("Company").Contains(filter.Str(string(rune('A' + r.Intn(4)))))
	case 3:
		// Occasionally reference a missing field, or a method only the
		// pointer reaches, to exercise error propagation.
		if r.Intn(2) == 0 {
			return filter.Path("AddrPrice").Lt(filter.Float(100))
		}
		return filter.Path("Ghost").Eq(filter.Int(1))
	default:
		return filter.Path("Company").Eq(filter.Str(string(rune('A' + r.Intn(4)))))
	}
}

// TestCompoundTransparencyProperty checks every match method, in both
// fail modes, against per-entry filter.Evaluate on random entry sets
// that mix filtered entries with entries without a filter (which match
// every event): none, some, or all of them.
func TestCompoundTransparencyProperty(t *testing.T) {
	prog, err := wire.Compile(reflect.TypeOf(quote{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nilEvery := []int{0, 3, 1}[r.Intn(3)] // 0: no nil filter, 1: all nil
		filters := map[string]*filter.Expr{}
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			var e *filter.Expr
			if nilEvery == 0 || r.Intn(nilEvery) != 0 {
				e = randExpr(r, 3)
			}
			filters[fmt.Sprintf("s%02d", i)] = e
		}
		c := New()
		if err := c.AddBatch(filters); err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			q := quote{
				Company: string(rune('A' + r.Intn(5))),
				Price:   float64(r.Intn(20)),
				Amount:  r.Intn(20),
			}
			// The oracles: filter.Evaluate per entry, an error rejecting
			// (strict) or accepting (fail-open); no filter accepts.
			var strict, open []string
			for id, e := range filters {
				ok, err := true, error(nil)
				if e != nil {
					ok, err = filter.Evaluate(e, q)
				}
				if err == nil && ok {
					strict = append(strict, id)
				}
				if err != nil || ok {
					open = append(open, id)
				}
			}
			sort.Strings(strict)
			sort.Strings(open)
			payload, err := prog.Append(nil, reflect.ValueOf(q))
			if err != nil {
				t.Fatal(err)
			}
			fulls := 0
			full := func() (any, error) { fulls++; return q, nil }
			wireStrict, _ := c.MatchWireAppend(prog, payload, full, nil)
			wireOpen, _ := c.MatchWireAppendFailOpen(prog, payload, full, nil)
			// Materialized in place: a pointer to the event, evaluated as
			// the value.
			inPlace := func() (any, error) { fulls++; return &q, nil }
			placeStrict, _ := c.MatchWireAppend(prog, payload, inPlace, nil)
			placeOpen, _ := c.MatchWireAppendFailOpen(prog, payload, inPlace, nil)
			for _, m := range []struct {
				name      string
				got, want []string
			}{
				{"Match", c.Match(q), strict},
				{"MatchNaive", c.MatchNaive(q), strict},
				{"MatchAppendFailOpen", c.MatchAppendFailOpen(q, nil), open},
				{"MatchWireAppend", wireStrict, strict},
				{"MatchWireAppendFailOpen", wireOpen, open},
				{"MatchWireAppend in place", placeStrict, strict},
				{"MatchWireAppendFailOpen in place", placeOpen, open},
			} {
				if fmt.Sprint(m.got) != fmt.Sprint(m.want) {
					t.Logf("mismatch: seed=%d quote=%+v %s=%v want %v", seed, q, m.name, m.got, m.want)
					return false
				}
			}
			if c.Unfiltered() && fulls != 0 {
				t.Logf("seed=%d: a compound without filters materialized the event", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentMatchAndMutate runs every match method while AddBatch
// publishes new plans (run it under -race): each match sees one whole
// plan, the entries it held before the batch or after it.
func TestConcurrentMatchAndMutate(t *testing.T) {
	filters := map[string]*filter.Expr{"all": nil}
	for i := 0; i < 10; i++ {
		filters[fmt.Sprintf("s%d", i)] = filter.Path("Price").Lt(filter.Float(float64(i)))
	}
	c := build(t, filters)
	prog, err := wire.Compile(reflect.TypeOf(quote{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = c.AddBatch(map[string]*filter.Expr{
				fmt.Sprintf("x%d", i%5):     filter.Path("Amount").Gt(filter.Int(int64(i))),
				fmt.Sprintf("y%d", (i+1)%5): nil,
			})
		}
	}()
	for i := 0; i < 200; i++ {
		q := quote{Price: float64(i % 10), Amount: i}
		payload, err := prog.Append(nil, reflect.ValueOf(q))
		if err != nil {
			t.Fatal(err)
		}
		full := func() (any, error) { return q, nil }
		got, err := c.MatchWireAppendFailOpen(prog, payload, full, c.MatchAppend(q, nil))
		if err != nil || len(got) == 0 || got[0] != "all" {
			t.Fatalf("event %d: %v, %v", i, got, err)
		}
		_ = c.Stats()
	}
	<-done
}

func BenchmarkCompoundVsNaive(b *testing.B) {
	for _, subs := range []int{10, 100, 1000} {
		r := rand.New(rand.NewSource(42))
		filters := map[string]*filter.Expr{}
		for i := 0; i < subs; i++ {
			filters[fmt.Sprintf("s%d", i)] = filter.And(
				filter.Path("Company").Contains(filter.Str("Telco")),
				filter.Path("Price").Lt(filter.Float(float64(r.Intn(200)))),
			)
		}
		c := build(b, filters)
		q := quote{Company: "Telco Mobiles", Price: 80}
		b.Run(fmt.Sprintf("compound/subs=%d", subs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Match(q)
			}
		})
		b.Run(fmt.Sprintf("naive/subs=%d", subs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MatchNaive(q)
			}
		})
	}
}

func TestMatchAppendReusesBuffer(t *testing.T) {
	c := build(t, map[string]*filter.Expr{
		"cheap": filter.Path("Price").Lt(filter.Float(100)),
		"telco": filter.Path("Company").Contains(filter.Str("Telco")),
		"big":   filter.Path("Amount").Gt(filter.Int(50)),
	})

	events := []quote{
		{Company: "Telco Mobiles", Price: 80, Amount: 10},
		{Company: "Acme", Price: 200, Amount: 100},
		{Company: "Telco Fixed", Price: 120, Amount: 60},
		{Company: "Zeta", Price: 10, Amount: 1},
	}
	buf := make([]string, 0, 4)
	for _, ev := range events {
		buf = c.MatchAppend(ev, buf[:0])
		if want := c.MatchNaive(ev); !reflect.DeepEqual(append([]string(nil), buf...), want) {
			// MatchNaive returns nil for no matches; normalize.
			if !(len(buf) == 0 && len(want) == 0) {
				t.Errorf("MatchAppend(%+v) = %v, want %v", ev, buf, want)
			}
		}
	}
}

func TestMatchAppendPreservesPrefix(t *testing.T) {
	c := build(t, map[string]*filter.Expr{"all": filter.True()})
	out := c.MatchAppend(quote{}, []string{"sentinel"})
	if !reflect.DeepEqual(out, []string{"sentinel", "all"}) {
		t.Errorf("MatchAppend = %v, want [sentinel all]", out)
	}
}

// TestMatchSteadyStateAllocs pins the allocation-light property of the
// pooled scratch + flattened evaluator: with field-access paths (no
// reflect method calls) and a reused output buffer, steady-state
// matching performs zero heap allocations per event.
func TestMatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	filters := map[string]*filter.Expr{}
	for i := 0; i < 100; i++ {
		c2 := float64((i % 10) * 30)
		filters[fmt.Sprintf("s%03d", i)] = filter.And(
			filter.Path("Price").Lt(filter.Float(c2+100)),
			filter.Path("Amount").Ge(filter.Int(int64(i%7))),
			filter.Path("GetPrice").Gt(filter.Float(float64(i%5))),
		)
	}
	c := build(t, filters)
	var ev any = quote{Company: "Telco", Price: 75, Amount: 5}
	buf := make([]string, 0, 128)
	buf = c.MatchAppend(ev, buf[:0]) // warm scratch pool and caches
	n := allocs.PerRun(200, func() {
		buf = c.MatchAppend(ev, buf[:0])
	})
	if n > 0 {
		t.Errorf("steady-state MatchAppend allocates %.3f objects/op, want 0", n)
	}
	if len(buf) == 0 {
		t.Fatal("nothing matched; workload broken")
	}
	if st := c.Stats(); st.AccessorFallbacks != 0 {
		t.Errorf("AccessorFallbacks = %d, want 0", st.AccessorFallbacks)
	}
}

// TestEvalProgShortCircuitOrder pins the in-order short-circuit
// semantics of the flattened evaluator against filter.Evaluate for the
// tricky error-interaction shapes: a false conjunct hides a later
// error, an error before the first false poisons the formula, and
// symmetrically for disjunctions.
func TestEvalProgShortCircuitOrder(t *testing.T) {
	errCond := filter.Path("Missing").Eq(filter.Int(1))
	cases := []struct {
		name string
		e    *filter.Expr
	}{
		{"and-false-then-err", filter.And(filter.False(), errCond)},
		{"and-err-then-false", filter.And(errCond, filter.False())},
		{"or-true-then-err", filter.Or(filter.True(), errCond)},
		{"or-err-then-true", filter.Or(errCond, filter.True())},
		{"not-err", filter.Not(errCond)},
		{"nested", filter.Or(filter.And(filter.True(), errCond), filter.True())},
	}
	ev := quote{Company: "Acme", Price: 10, Amount: 1}
	for _, tc := range cases {
		c := build(t, map[string]*filter.Expr{"s": tc.e})
		got := len(c.Match(ev)) == 1
		want, err := filter.Evaluate(tc.e, ev)
		want = want && err == nil
		if got != want {
			t.Errorf("%s: compound=%v, Evaluate=%v", tc.name, got, want)
		}
	}
}

func TestMatchAppendFailOpen(t *testing.T) {
	c := build(t, map[string]*filter.Expr{
		"ok":     filter.Path("Price").Lt(filter.Float(100)),
		"broken": filter.Path("NoSuchField").Lt(filter.Float(100)),
		// An erroring term inside a disjunction poisons the formula in
		// strict mode but fails open here, even when it precedes a true
		// term.
		"mixed": filter.Or(
			filter.Path("NoSuchField").Lt(filter.Float(1)),
			filter.Path("Price").Lt(filter.Float(100)),
		),
	})
	ev := quote{Company: "Acme", Price: 50}
	if got := c.Match(ev); !reflect.DeepEqual(got, []string{"ok"}) {
		t.Errorf("strict Match = %v, want [ok] (mixed's Or yields the leading error)", got)
	}
	if got := c.MatchAppendFailOpen(ev, nil); !reflect.DeepEqual(got, []string{"broken", "mixed", "ok"}) {
		t.Errorf("MatchAppendFailOpen = %v, want [broken mixed ok]", got)
	}
	// A formula that is plainly false stays excluded in both modes.
	_ = c.AddBatch(map[string]*filter.Expr{"no": filter.Path("Price").Gt(filter.Float(100))})
	if got := c.MatchAppendFailOpen(ev, nil); !reflect.DeepEqual(got, []string{"broken", "mixed", "ok"}) {
		t.Errorf("fail-open must not include false formulas: %v", got)
	}
}

// viaPointer and typedViaPointer promote quote's accessors through a
// nil-able embedded pointer: with it nil, GetPrice panics. viaPointer
// holds the pointer and nothing else, so an interface holds it by value
// and its accessors keep the reflective step; typedViaPointer holds one
// more field, so an interface holds its address and its accessors are
// direct calls.
type (
	viaPointer      struct{ *quote }
	typedViaPointer struct {
		*quote
		pad int
	}
)

// TestTypedAccessorMatchesReflective checks that a class with direct
// accessor calls and a pointer-shaped twin (reflective steps) match the same entries, strict and fail-open, including when the
// accessor panics through a nil embedded pointer; strict matching also
// agrees with per-entry filter.Evaluate.
func TestTypedAccessorMatchesReflective(t *testing.T) {
	c := build(t, map[string]*filter.Expr{
		"lt":  filter.Path("GetPrice").Lt(filter.Float(100)),
		"not": filter.Not(filter.Path("GetPrice").Lt(filter.Float(100))),
		"or":  filter.Or(filter.Path("GetCompany").Eq(filter.Str("Acme")), filter.Path("GetPrice").Ge(filter.Float(50))),
		"and": filter.And(filter.False(), filter.Path("GetPrice").Lt(filter.Float(1))),
	})
	for _, q := range []*quote{nil, {Company: "Acme", Price: 10}, {Company: "Telco", Price: 500}, {Price: 75}} {
		var typed, reflective any = typedViaPointer{quote: q}, viaPointer{q}
		want := c.MatchNaive(reflective)
		sort.Strings(want)
		if got := c.Match(typed); !reflect.DeepEqual(got, c.Match(reflective)) || !reflect.DeepEqual(got, want) {
			t.Errorf("quote %+v: typed %v, reflective %v, naive %v", q, got, c.Match(reflective), want)
		}
		typedOpen := c.MatchAppendFailOpen(typed, nil)
		if reflOpen := c.MatchAppendFailOpen(reflective, nil); !reflect.DeepEqual(typedOpen, reflOpen) {
			t.Errorf("quote %+v: fail-open typed %v, reflective %v", q, typedOpen, reflOpen)
		}
		if q == nil && len(typedOpen) != 3 {
			t.Errorf("nil embedded pointer: fail-open matched %v, want every entry but the false conjunction", typedOpen)
		}
	}
	if st := c.Stats(); st.AccessorFallbacks != 0 {
		t.Errorf("AccessorFallbacks = %d, want 0", st.AccessorFallbacks)
	}
}

// TestAccessorProgramStats pins the compile-step counters: one program
// per (event type, compilable unique path), and one fallback count per
// event for paths that cannot compile against the type.
func TestAccessorProgramStats(t *testing.T) {
	c := build(t, map[string]*filter.Expr{
		"a": filter.Path("Price").Lt(filter.Float(100)),
		"b": filter.Path("Missing").Eq(filter.Int(1)), // never compiles for quote
	})

	ev := quote{Company: "Telco", Price: 50}
	for i := 0; i < 3; i++ {
		c.Match(ev)
	}
	st := c.Stats()
	if st.AccessorPrograms != 1 {
		t.Errorf("AccessorPrograms = %d, want 1 (Price compiled, Missing rejected)", st.AccessorPrograms)
	}
	if st.AccessorFallbacks != 3 {
		t.Errorf("AccessorFallbacks = %d, want 3 (one reflective Missing resolution per event)", st.AccessorFallbacks)
	}

	// A second event type compiles its own program table.
	c.Match(&quote{Company: "Telco", Price: 50})
	if st := c.Stats(); st.AccessorPrograms != 2 {
		t.Errorf("AccessorPrograms = %d after second root type, want 2", st.AccessorPrograms)
	}

	// A later AddBatch publishes a new plan, whose counters start over.
	_ = c.AddBatch(map[string]*filter.Expr{"c": filter.Path("Amount").Ge(filter.Int(1))})
	c.Match(ev)
	if st := c.Stats(); st.AccessorPrograms != 2 || st.AccessorFallbacks != 1 {
		t.Errorf("AccessorPrograms = %d, AccessorFallbacks = %d after a new plan, want 2 (Price+Amount) and 1", st.AccessorPrograms, st.AccessorFallbacks)
	}
}

// TestMethodPathMatchesNaive pins program/oracle agreement for accessor
// methods specifically (value receivers through boxed values), the
// paper's preferred encapsulated form.
func TestMethodPathMatchesNaive(t *testing.T) {
	filters := map[string]*filter.Expr{}
	for i := 0; i < 20; i++ {
		filters[fmt.Sprintf("m%02d", i)] = filter.And(
			filter.Path("GetPrice").Lt(filter.Float(float64(i)*10)),
			filter.Path("GetCompany").Contains(filter.Str("Tel")),
		)
	}
	c := build(t, filters)
	for _, ev := range []any{
		quote{Company: "Telco", Price: 55},
		quote{Company: "Acme", Price: 55},
		quote{Company: "Telco", Price: 500},
	} {
		got := c.Match(ev)
		want := c.MatchNaive(ev)
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Errorf("Match(%+v) = %v, naive %v", ev, got, want)
		}
	}
}

// TestProgramTableGrowthCapped pins the heterogeneous-caller bound: one
// plan compiles program tables for at most maxProgramTypes distinct
// event root types; beyond that, matching stays correct through the
// reflective fallback (counted in AccessorFallbacks).
func TestProgramTableGrowthCapped(t *testing.T) {
	c := build(t, map[string]*filter.Expr{"cheap": filter.Path("Price").Lt(filter.Float(100))})
	p := c.plan.Load()
	// Saturate the cap artificially (distinct real types are hard to
	// mint): the counter is what gates admission.
	p.programTypes.Store(maxProgramTypes)
	before := c.Stats().AccessorPrograms
	got := c.Match(quote{Company: "x", Price: 50})
	if len(got) != 1 || got[0] != "cheap" {
		t.Fatalf("over-cap Match = %v, want [cheap]", got)
	}
	st := c.Stats()
	if st.AccessorPrograms != before {
		t.Errorf("AccessorPrograms grew past the cap: %d -> %d", before, st.AccessorPrograms)
	}
	if st.AccessorFallbacks == 0 {
		t.Error("over-cap matching did not count reflective fallbacks")
	}
	if _, ok := p.programs.Load(reflect.TypeOf(quote{})); ok {
		t.Error("over-cap type was cached anyway")
	}
}

// geoPoint has exported fields and MarshalBinary: on the wire it is the
// method's output (here the fields reversed), not its fields.
type geoPoint struct{ Lat, Lon float64 }

func (g geoPoint) MarshalBinary() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(g.Lon)), math.Float64bits(g.Lat)), nil
}

func (g *geoPoint) UnmarshalBinary(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("geoPoint: %d bytes", len(b))
	}
	g.Lon, g.Lat = math.Float64frombits(binary.LittleEndian.Uint64(b)), math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

type located struct {
	Site string
	Loc  geoPoint
	Seq  int
}

// TestMarshaledFieldFilterMaterializes: the wire match path evaluates
// the event full decodes, once per event, whether a filter reads into a
// marshaled field or only behind it, and its verdicts are
// filter.Evaluate's.
func TestMarshaledFieldFilterMaterializes(t *testing.T) {
	prog, err := wire.Compile(reflect.TypeOf(located{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		filters map[string]*filter.Expr
	}{
		{"into the marshaled field", map[string]*filter.Expr{
			"north": filter.Path("Loc.Lat").Gt(filter.Float(45)),
			"east":  filter.And(filter.Path("Loc.Lon").Gt(filter.Float(0)), filter.Path("Seq").Lt(filter.Int(3))),
		}},
		{"behind the marshaled field", map[string]*filter.Expr{
			"early": filter.Path("Seq").Lt(filter.Int(3)),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := build(t, tc.filters)
			rng := rand.New(rand.NewSource(3))
			const events = 50
			decodes := 0
			for i := 0; i < events; i++ {
				ev := located{Site: "s", Loc: geoPoint{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}, Seq: rng.Intn(6)}
				payload, err := prog.Append(nil, reflect.ValueOf(ev))
				if err != nil {
					t.Fatal(err)
				}
				full := func() (any, error) {
					decodes++
					v := reflect.New(prog.Type()).Elem()
					if err := prog.Decode(payload, v); err != nil {
						return nil, err
					}
					return v.Interface(), nil
				}
				got, err := c.MatchWireAppend(prog, payload, full, nil)
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for id, e := range tc.filters {
					if ok, err := filter.Evaluate(e, ev); err == nil && ok {
						want = append(want, id)
					}
				}
				sort.Strings(got)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("event %+v matched %v, filter.Evaluate says %v", ev, got, want)
				}
			}
			if decodes != events {
				t.Errorf("%d decodes for %d events, want one each", decodes, events)
			}
		})
	}
}
