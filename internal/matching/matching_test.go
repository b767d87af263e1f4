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

func TestMatchBasic(t *testing.T) {
	c := New()
	if err := c.Add("cheap", filter.Path("Price").Lt(filter.Float(100))); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("telco", filter.Path("Company").Contains(filter.Str("Telco"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("both", filter.And(
		filter.Path("Price").Lt(filter.Float(100)),
		filter.Path("Company").Contains(filter.Str("Telco")),
	)); err != nil {
		t.Fatal(err)
	}

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
	c := New()
	_ = c.Add("all", filter.True())
	if got := c.Match(quote{}); !reflect.DeepEqual(got, []string{"all"}) {
		t.Errorf("Match = %v", got)
	}
}

func TestRemove(t *testing.T) {
	c := New()
	_ = c.Add("a", filter.True())
	_ = c.Add("b", filter.True())
	c.Remove("a")
	if got := c.Match(quote{}); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("Match = %v", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestAddReplaces(t *testing.T) {
	c := New()
	_ = c.Add("s", filter.Path("Price").Lt(filter.Float(10)))
	_ = c.Add("s", filter.Path("Price").Gt(filter.Float(10)))
	if got := c.Match(quote{Price: 5}); len(got) != 0 {
		t.Errorf("old filter still active: %v", got)
	}
	if got := c.Match(quote{Price: 15}); !reflect.DeepEqual(got, []string{"s"}) {
		t.Errorf("Match = %v", got)
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	c := New()
	if err := c.Add("bad", filter.And()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestStatsFactoring(t *testing.T) {
	c := New()
	// 50 subscriptions sharing one condition verbatim.
	shared := filter.Path("Company").Contains(filter.Str("Telco"))
	for i := 0; i < 50; i++ {
		f := filter.And(
			filter.Path("Company").Contains(filter.Str("Telco")),
			filter.Path("Price").Lt(filter.Float(float64(i))),
		)
		if err := c.Add(fmt.Sprintf("s%d", i), f); err != nil {
			t.Fatal(err)
		}
	}
	_ = shared
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
	c := New()
	_ = c.Add("lt", filter.Path("Price").Lt(filter.Float(100)))
	_ = c.Add("le", filter.Path("Price").Le(filter.Float(100)))
	_ = c.Add("gt", filter.Path("Price").Gt(filter.Float(100)))
	_ = c.Add("ge", filter.Path("Price").Ge(filter.Float(100)))
	_ = c.Add("eq", filter.Path("Price").Eq(filter.Float(100)))
	_ = c.Add("ne", filter.Path("Price").Ne(filter.Float(100)))

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
	c := New()
	_ = c.Add("int", filter.Path("Amount").Lt(filter.Int(10)))
	_ = c.Add("float", filter.Path("Amount").Lt(filter.Float(9.5)))
	got := c.Match(quote{Amount: 9})
	if !reflect.DeepEqual(got, []string{"float", "int"}) {
		t.Errorf("Match = %v", got)
	}
}

func TestErrorPoisonsOnlyAffectedSubscriptions(t *testing.T) {
	c := New()
	_ = c.Add("good", filter.Path("Price").Ge(filter.Float(0)))
	_ = c.Add("missing", filter.Path("NoSuchField").Eq(filter.Int(1)))
	_ = c.Add("not-missing", filter.Not(filter.Path("NoSuchField").Eq(filter.Int(1))))
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
		// Occasionally reference a missing field to exercise error
		// propagation.
		return filter.Path("Ghost").Eq(filter.Int(1))
	default:
		return filter.Path("Company").Eq(filter.Str(string(rune('A' + r.Intn(4)))))
	}
}

func TestCompoundTransparencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New()
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			if err := c.Add(fmt.Sprintf("s%02d", i), randExpr(r, 3)); err != nil {
				return false
			}
		}
		for trial := 0; trial < 10; trial++ {
			q := quote{
				Company: string(rune('A' + r.Intn(5))),
				Price:   float64(r.Intn(20)),
				Amount:  r.Intn(20),
			}
			if !reflect.DeepEqual(c.Match(q), c.MatchNaive(q)) {
				t.Logf("mismatch: seed=%d quote=%+v\n compound=%v\n naive=%v",
					seed, q, c.Match(q), c.MatchNaive(q))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentMatchAndMutate(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		_ = c.Add(fmt.Sprintf("s%d", i), filter.Path("Price").Lt(filter.Float(float64(i))))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = c.Add(fmt.Sprintf("x%d", i%5), filter.Path("Amount").Gt(filter.Int(int64(i))))
			c.Remove(fmt.Sprintf("x%d", (i+1)%5))
		}
	}()
	for i := 0; i < 200; i++ {
		_ = c.Match(quote{Price: float64(i % 10), Amount: i})
	}
	<-done
}

func BenchmarkCompoundVsNaive(b *testing.B) {
	for _, subs := range []int{10, 100, 1000} {
		c := New()
		r := rand.New(rand.NewSource(42))
		for i := 0; i < subs; i++ {
			f := filter.And(
				filter.Path("Company").Contains(filter.Str("Telco")),
				filter.Path("Price").Lt(filter.Float(float64(r.Intn(200)))),
			)
			if err := c.Add(fmt.Sprintf("s%d", i), f); err != nil {
				b.Fatal(err)
			}
		}
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
	c := New()
	_ = c.Add("cheap", filter.Path("Price").Lt(filter.Float(100)))
	_ = c.Add("telco", filter.Path("Company").Contains(filter.Str("Telco")))
	_ = c.Add("big", filter.Path("Amount").Gt(filter.Int(50)))

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
	c := New()
	_ = c.Add("all", filter.True())
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
	c := New()
	for i := 0; i < 100; i++ {
		c2 := float64((i % 10) * 30)
		_ = c.Add(fmt.Sprintf("s%03d", i), filter.And(
			filter.Path("Price").Lt(filter.Float(c2+100)),
			filter.Path("Amount").Ge(filter.Int(int64(i%7))),
		))
	}
	var ev any = quote{Company: "Telco", Price: 75, Amount: 5}
	buf := make([]string, 0, 128)
	buf = c.MatchAppend(ev, buf[:0]) // warm scratch pool and caches
	allocs := testing.AllocsPerRun(200, func() {
		buf = c.MatchAppend(ev, buf[:0])
	})
	if allocs > 0 {
		t.Errorf("steady-state MatchAppend allocates %.1f objects/op, want 0", allocs)
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
		c := New()
		if err := c.Add("s", tc.e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := len(c.Match(ev)) == 1
		want, err := filter.Evaluate(tc.e, ev)
		want = want && err == nil
		if got != want {
			t.Errorf("%s: compound=%v, Evaluate=%v", tc.name, got, want)
		}
	}
}

func TestAddBatchMatchesIncrementalAdd(t *testing.T) {
	filters := map[string]*filter.Expr{
		"cheap": filter.Path("Price").Lt(filter.Float(100)),
		"telco": filter.Path("Company").Contains(filter.Str("Telco")),
		"both": filter.And(
			filter.Path("Price").Lt(filter.Float(100)),
			filter.Path("Company").Contains(filter.Str("Telco")),
		),
	}
	batch := New()
	if err := batch.AddBatch(filters); err != nil {
		t.Fatal(err)
	}
	incr := New()
	for id, f := range filters {
		if err := incr.Add(id, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range []quote{
		{Company: "Telco Mobiles", Price: 80},
		{Company: "Acme", Price: 80},
		{Company: "Telco", Price: 200},
	} {
		if got, want := batch.Match(ev), incr.Match(ev); !reflect.DeepEqual(got, want) {
			t.Errorf("AddBatch Match(%+v) = %v, incremental = %v", ev, got, want)
		}
	}
	if batch.Stats() != incr.Stats() {
		t.Errorf("Stats diverge: batch %+v, incremental %+v", batch.Stats(), incr.Stats())
	}

	if err := batch.AddBatch(map[string]*filter.Expr{"bad": {}}); err == nil {
		t.Error("AddBatch with invalid filter should fail")
	}
	if batch.Len() != 3 {
		t.Errorf("failed AddBatch mutated the set: Len = %d", batch.Len())
	}
}

func TestRemoveBatch(t *testing.T) {
	c := New()
	for _, id := range []string{"a", "b", "c", "d"} {
		_ = c.Add(id, filter.True())
	}
	c.RemoveBatch([]string{"a", "c", "zzz-absent"})
	if got := c.Match(quote{}); !reflect.DeepEqual(got, []string{"b", "d"}) {
		t.Errorf("Match = %v", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestLazyRecompileOncePerBurst(t *testing.T) {
	c := New()
	for i := 0; i < 50; i++ {
		_ = c.Add(fmt.Sprintf("s%02d", i), filter.Path("Price").Lt(filter.Float(float64(i))))
	}
	if got := c.Stats().Recompiles; got != 1 {
		t.Fatalf("recompiles after 50 Adds + Stats = %d, want 1", got)
	}
	// A mixed burst — batch removal plus individual add/removes — must
	// also compile exactly once, at the next Match.
	ids := make([]string, 0, 25)
	for i := 0; i < 25; i++ {
		ids = append(ids, fmt.Sprintf("s%02d", i))
	}
	c.RemoveBatch(ids)
	c.Remove("s30")
	_ = c.Add("extra", filter.True())
	_ = c.Match(quote{Price: 10})
	_ = c.Match(quote{Price: 20})
	if got := c.Stats().Recompiles; got != 2 {
		t.Errorf("recompiles after mutation burst = %d, want 2", got)
	}
	if got := c.Len(); got != 25 {
		t.Errorf("Len = %d, want 25", got)
	}
	// No-op mutations (removing absent IDs) must not dirty the plan.
	c.Remove("never-there")
	c.RemoveBatch([]string{"also-absent"})
	_ = c.Match(quote{})
	if got := c.Stats().Recompiles; got != 2 {
		t.Errorf("recompiles after no-op removals = %d, want 2", got)
	}
}

func TestRemoveBatchMatchesIterativeRemove(t *testing.T) {
	build := func() *Compound {
		c := New()
		for i := 0; i < 20; i++ {
			_ = c.Add(fmt.Sprintf("s%02d", i), filter.Path("Price").Lt(filter.Float(float64(i*50))))
		}
		return c
	}
	var drop []string
	for i := 0; i < 20; i += 2 {
		drop = append(drop, fmt.Sprintf("s%02d", i))
	}
	batch := build()
	batch.RemoveBatch(drop)
	iter := build()
	for _, id := range drop {
		iter.Remove(id)
	}
	for _, price := range []float64{25, 425, 975} {
		ev := quote{Price: price}
		if got, want := batch.Match(ev), iter.Match(ev); !reflect.DeepEqual(got, want) {
			t.Errorf("price %v: RemoveBatch Match = %v, iterative = %v", price, got, want)
		}
	}
}

func TestMatchAppendFailOpen(t *testing.T) {
	c := New()
	_ = c.Add("ok", filter.Path("Price").Lt(filter.Float(100)))
	_ = c.Add("broken", filter.Path("NoSuchField").Lt(filter.Float(100)))
	// An erroring term inside a disjunction poisons the formula in
	// strict mode but fails open here, even when it precedes a true term.
	_ = c.Add("mixed", filter.Or(
		filter.Path("NoSuchField").Lt(filter.Float(1)),
		filter.Path("Price").Lt(filter.Float(100)),
	))
	ev := quote{Company: "Acme", Price: 50}
	if got := c.Match(ev); !reflect.DeepEqual(got, []string{"ok"}) {
		t.Errorf("strict Match = %v, want [ok] (mixed's Or yields the leading error)", got)
	}
	if got := c.MatchAppendFailOpen(ev, nil); !reflect.DeepEqual(got, []string{"broken", "mixed", "ok"}) {
		t.Errorf("MatchAppendFailOpen = %v, want [broken mixed ok]", got)
	}
	// A formula that is plainly false stays excluded in both modes.
	_ = c.Add("no", filter.Path("Price").Gt(filter.Float(100)))
	if got := c.MatchAppendFailOpen(ev, nil); !reflect.DeepEqual(got, []string{"broken", "mixed", "ok"}) {
		t.Errorf("fail-open must not include false formulas: %v", got)
	}
}

// TestAccessorProgramStats pins the compile-step counters: one program
// per (event type, compilable unique path), and one fallback count per
// event for paths that cannot compile against the type.
func TestAccessorProgramStats(t *testing.T) {
	c := New()
	_ = c.Add("a", filter.Path("Price").Lt(filter.Float(100)))
	_ = c.Add("b", filter.Path("Missing").Eq(filter.Int(1))) // never compiles for quote

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

	// Counters survive plan recompilation (they describe the matcher's
	// lifetime, not one plan).
	_ = c.Add("c", filter.Path("Amount").Ge(filter.Int(1)))
	c.Match(ev)
	if st := c.Stats(); st.AccessorPrograms < 4 {
		t.Errorf("AccessorPrograms = %d after recompile, want >= 4 (Price+Amount for value roots)", st.AccessorPrograms)
	}
}

// TestMethodPathMatchesNaive pins program/oracle agreement for accessor
// methods specifically (value receivers through boxed values), the
// paper's preferred encapsulated form.
func TestMethodPathMatchesNaive(t *testing.T) {
	c := New()
	for i := 0; i < 20; i++ {
		_ = c.Add(fmt.Sprintf("m%02d", i), filter.And(
			filter.Path("GetPrice").Lt(filter.Float(float64(i)*10)),
			filter.Path("GetCompany").Contains(filter.Str("Tel")),
		))
	}
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
	c := New()
	_ = c.Add("cheap", filter.Path("Price").Lt(filter.Float(100)))
	p := c.currentPlan()
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

// TestMarshaledFieldFilterMaterializes: a filter on a field of a
// marshaled type cannot be read from the payload's bytes, so the wire
// match path materializes the event, and its verdicts are
// filter.Evaluate's; a plan that reads only fields behind the marshaled
// one still decides by partial decode.
func TestMarshaledFieldFilterMaterializes(t *testing.T) {
	prog, err := wire.Compile(reflect.TypeOf(located{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		filters     map[string]*filter.Expr
		materialize bool
	}{
		{"into the marshaled field", map[string]*filter.Expr{
			"north": filter.Path("Loc.Lat").Gt(filter.Float(45)),
			"east":  filter.And(filter.Path("Loc.Lon").Gt(filter.Float(0)), filter.Path("Seq").Lt(filter.Int(3))),
		}, true},
		{"behind the marshaled field", map[string]*filter.Expr{
			"early": filter.Path("Seq").Lt(filter.Int(3)),
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			if err := c.AddBatch(tc.filters); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			const events = 50
			for i := 0; i < events; i++ {
				ev := located{Site: "s", Loc: geoPoint{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}, Seq: rng.Intn(6)}
				payload, err := prog.Append(nil, reflect.ValueOf(ev))
				if err != nil {
					t.Fatal(err)
				}
				full := func() (any, error) {
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
			st := c.Stats()
			if tc.materialize && (st.WireMaterializations != events || st.PartialDecodes != 0) {
				t.Errorf("WireMaterializations = %d, PartialDecodes = %d; want %d and 0", st.WireMaterializations, st.PartialDecodes, events)
			}
			if !tc.materialize && (st.PartialDecodes != events || st.WireMaterializations != 0) {
				t.Errorf("PartialDecodes = %d, WireMaterializations = %d; want %d and 0", st.PartialDecodes, st.WireMaterializations, events)
			}
		})
	}
}
