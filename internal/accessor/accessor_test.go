package accessor

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"govents/internal/allocs"
	"govents/internal/filter"
)

// The test menagerie exercises every structural feature the compiler
// must simulate: value- and pointer-receiver accessors, embedded
// structs (promotion), embedded pointers (nil-able promotion hops),
// explicit pointer fields, multi-level pointers, named non-struct
// types with methods, and reference-kind fields that must fail
// ValueOf.

type inner struct {
	Score  float64
	Label  string
	hidden int // unexported: reachable by field lookup, like the oracle
}

func (in inner) GetScore() float64 { return in.Score }

func (in *inner) PtrLabel() string { return in.Label }

type price float64

func (p price) Cents() int { return int(p * 100) }

// scorer is an interface-typed field's static type: its methods must
// resolve through the interface method set, whether or not the holding
// position is addressable (a pointer-to-interface type has no methods,
// so the addressable-lookup shortcut must not apply to interfaces).
type scorer interface {
	CurScore() float64
}

func (in inner) CurScore() float64 { return in.Score }

type embedded struct {
	Region string
}

func (e embedded) GetRegion() string { return e.Region }

type event struct {
	embedded // promoted fields and methods
	*inner   // promoted through a nil-able embedded pointer
	Company  string
	Price    price
	Amount   int
	Active   bool
	Nested   inner
	Ptr      *inner
	PtrPtr   **inner
	Iface    scorer   // interface-typed field (addressable via &event)
	IfacePtr *scorer  // pointer to interface: deref lands on an interface
	Tags     []string // non-primitive leaf: ValueOf must reject
}

func (e event) GetCompany() string { return e.Company }

func (e *event) AddrAmount() int { return e.Amount }

func (e event) TwoResults() (int, int) { return 1, 2 } // malformed accessor

func (e event) Arity(x int) int { return x } // malformed accessor

func mkEvent(rng *rand.Rand) event {
	ev := event{
		embedded: embedded{Region: fmt.Sprintf("region-%d", rng.Intn(5))},
		Company:  fmt.Sprintf("co-%d", rng.Intn(10)),
		Price:    price(rng.Float64() * 100),
		Amount:   rng.Intn(1000),
		Active:   rng.Intn(2) == 0,
		Nested:   inner{Score: rng.Float64(), Label: "n", hidden: rng.Intn(9)},
		Tags:     []string{"a"},
	}
	if rng.Intn(2) == 0 {
		ev.inner = &inner{Score: rng.Float64(), Label: "emb"}
	}
	if rng.Intn(2) == 0 {
		ev.Ptr = &inner{Score: rng.Float64(), Label: "ptr"}
	}
	if rng.Intn(2) == 0 {
		p := &inner{Score: rng.Float64(), Label: "pp"}
		ev.PtrPtr = &p
	}
	if rng.Intn(2) == 0 {
		ev.Iface = inner{Score: rng.Float64()}
	}
	switch rng.Intn(3) {
	case 0: // non-nil pointer to non-nil interface
		var s scorer = inner{Score: rng.Float64()}
		ev.IfacePtr = &s
	case 1: // non-nil pointer to nil interface (the reflect panic shape)
		ev.IfacePtr = new(scorer)
	}
	return ev
}

// paths is the randomized path pool: resolvable ones, value-dependent
// ones (nil pointers), and statically hopeless ones.
var paths = [][]string{
	{"GetCompany"},
	{"Company"},
	{"Region"},         // promoted field
	{"GetRegion"},      // promoted value-receiver method
	{"Price"},          // named non-struct leaf
	{"Price", "Cents"}, // method on a named non-struct type
	{"Amount"},
	{"Active"},
	{"AddrAmount"}, // pointer-receiver accessor
	{"Nested", "Score"},
	{"Nested", "GetScore"},
	{"Nested", "PtrLabel"}, // pointer-receiver on a nested field
	{"Nested", "hidden"},   // unexported field
	{"Ptr", "Score"},       // explicit pointer hop (nil-able)
	{"Ptr", "GetScore"},
	{"Ptr", "PtrLabel"},
	{"PtrPtr", "Score"},      // multi-level pointer
	{"Iface", "CurScore"},    // interface method (addressable iff &event root)
	{"Iface", "Missing"},     // not in the interface's method set
	{"IfacePtr", "CurScore"}, // interface method behind a pointer deref
	{"IfacePtr", "Missing"},
	{"Score"},    // promoted through embedded pointer (nil-able)
	{"Label"},    // ditto
	{"PtrLabel"}, // promoted pointer-receiver method
	{"Tags"},     // resolves, but ValueOf rejects
	{"Missing"},  // no such segment
	{"Nested", "Missing"},
	{"Company", "Length"}, // segment on non-struct leaf
	{"TwoResults"},        // malformed accessor signature
	{"Arity"},             // malformed accessor signature
}

// TestProgramMatchesResolvePath is the randomized equivalence fuzz: for
// every (root shape, path) draw, a compiled program and the reflective
// oracle must agree on success, on the resolved constant, and on
// failure. Root shapes cover both ways an event reaches a matcher:
// boxed struct value (non-addressable) and pointer to struct.
func TestProgramMatchesResolvePath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ev := mkEvent(rng)
		var root any
		if rng.Intn(2) == 0 {
			root = ev
		} else {
			root = &ev
		}
		path := paths[rng.Intn(len(paths))]
		rv := reflect.ValueOf(root)

		wantV, wantErr := filter.ResolvePath(rv, path)
		var want filter.Constant
		if wantErr == nil {
			want, wantErr = filter.ValueOf(wantV)
		}

		prog, cerr := Compile(rv.Type(), path)
		if cerr != nil {
			// Compile-time rejection must only happen when the oracle
			// fails for every value of the type: value-dependent
			// failures (nil pointers) must compile and fail at Resolve.
			if wantErr == nil {
				t.Fatalf("path %v on %T: compile rejected (%v) but oracle resolved %+v", path, root, cerr, want)
			}
			continue
		}
		got, gotErr := prog.Constant(root)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("path %v on %T: program err=%v, oracle err=%v", path, root, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("path %v on %T: program=%+v oracle=%+v", path, root, got, want)
		}
	}
}

// TestCompileRejectsStaticallyHopelessPaths pins that paths the oracle
// can never resolve are rejected once at compile time (the caller's
// signal to take the per-event fallback).
func TestCompileRejectsStaticallyHopelessPaths(t *testing.T) {
	typ := reflect.TypeOf(event{})
	for _, path := range [][]string{
		{"Missing"},
		{"Nested", "Missing"},
		{"Company", "Length"},
		{"TwoResults"},
		{"Arity"},
	} {
		if _, err := Compile(typ, path); err == nil {
			t.Errorf("Compile(%v) succeeded, want error", path)
		}
	}
	if _, err := Compile(nil, []string{"X"}); err == nil {
		t.Error("Compile(nil root) succeeded, want error")
	}
	if _, err := Compile(typ, nil); err == nil {
		t.Error("Compile(empty path) succeeded, want error")
	}
}

// TestAddrAccessorRequiresAddressability pins the method-set fidelity
// that makes compilation sound: a pointer-receiver accessor is
// reachable from a *event root (and from addressable positions below a
// deref) but not from a boxed event value — exactly like the oracle.
func TestAddrAccessorRequiresAddressability(t *testing.T) {
	ev := event{Amount: 7}

	if _, err := Compile(reflect.TypeOf(ev), []string{"AddrAmount"}); err == nil {
		t.Error("AddrAmount compiled for non-addressable value root; oracle cannot resolve it there")
	}
	if _, err := filter.ResolvePath(reflect.ValueOf(ev), []string{"AddrAmount"}); err == nil {
		t.Error("oracle resolved AddrAmount on a value root; compiled parity test is stale")
	}

	prog, err := Compile(reflect.TypeOf(&ev), []string{"AddrAmount"})
	if err != nil {
		t.Fatalf("AddrAmount via pointer root: %v", err)
	}
	c, err := prog.Constant(&ev)
	if err != nil || c.I != 7 {
		t.Fatalf("AddrAmount = %+v, %v; want 7", c, err)
	}

	// Below a deref the value is addressable: pointer-receiver methods
	// of a pointed-to struct compile from a value root too.
	prog, err = Compile(reflect.TypeOf(ev), []string{"Ptr", "PtrLabel"})
	if err != nil {
		t.Fatalf("Ptr.PtrLabel: %v", err)
	}
	ev.Ptr = &inner{Label: "deep"}
	c, err = prog.Constant(ev)
	if err != nil || c.S != "deep" {
		t.Fatalf("Ptr.PtrLabel = %+v, %v; want deep", c, err)
	}
}

// TestInterfaceMethodOnAddressableField is the regression test for the
// single-lookup rewrite: an interface-typed field reached through a
// pointer root is addressable, but its methods live in the interface's
// own method set (a pointer-to-interface type has none), so the
// addressable pointer-method-set shortcut must not apply to interface
// kinds — in the compiler or in the reflective fallback.
func TestInterfaceMethodOnAddressableField(t *testing.T) {
	ev := event{Iface: inner{Score: 42}}
	for _, root := range []any{ev, &ev} {
		rv := reflect.ValueOf(root)
		v, err := filter.ResolvePath(rv, []string{"Iface", "CurScore"})
		if err != nil {
			t.Fatalf("oracle on %T: %v", root, err)
		}
		if got := v.Float(); got != 42 {
			t.Fatalf("oracle on %T = %v, want 42", root, got)
		}
		prog, err := Compile(rv.Type(), []string{"Iface", "CurScore"})
		if err != nil {
			t.Fatalf("Compile on %T: %v", root, err)
		}
		c, err := prog.Constant(root)
		if err != nil || c.F != 42 {
			t.Fatalf("program on %T = %+v, %v; want 42", root, c, err)
		}
	}
}

// TestNilPointerFailsAtResolveNotCompile pins the fail-open split: nil
// pointers are value conditions, so the program compiles and the
// per-event failure is an error (with no allocation), never a panic.
func TestNilPointerFailsAtResolveNotCompile(t *testing.T) {
	for _, path := range [][]string{{"Ptr", "Score"}, {"Score"}, {"PtrPtr", "Score"}} {
		prog, err := Compile(reflect.TypeOf(event{}), path)
		if err != nil {
			t.Fatalf("Compile(%v): %v", path, err)
		}
		if _, err := prog.Resolve(reflect.ValueOf(event{})); err == nil {
			t.Errorf("Resolve(%v) over nil pointers succeeded, want error", path)
		}
	}
}

// TestResolveRejectsWrongRootType pins the guard against a program
// compiled for one class being replayed against another.
func TestResolveRejectsWrongRootType(t *testing.T) {
	prog, err := Compile(reflect.TypeOf(event{}), []string{"Company"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Resolve(reflect.ValueOf(inner{})); err == nil {
		t.Error("Resolve with mismatched root type succeeded, want error")
	}
	if _, err := prog.Resolve(reflect.Value{}); err == nil {
		t.Error("Resolve with invalid root succeeded, want error")
	}
}

// TestFieldProgramZeroAllocs pins the tentpole's allocation claim:
// compiled field/deref paths (including promoted and pointer-hopping
// ones) resolve with zero steady-state heap allocations, and the
// nil-pointer failure path allocates nothing either (preallocated step
// errors).
func TestFieldProgramZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	in := &inner{Score: 4.5, Label: "x"}
	ev := event{Company: "co", Amount: 3, Nested: inner{Score: 9}, Ptr: in}
	ev.inner = in
	rv := reflect.ValueOf(ev)
	var root any = ev
	for _, path := range [][]string{
		{"Company"},
		{"Amount"},
		{"Nested", "Score"},
		{"Ptr", "Score"},
		{"Score"}, // promoted through the embedded pointer
		{"Region"},
	} {
		prog, err := Compile(rv.Type(), path)
		if err != nil {
			t.Fatalf("Compile(%v): %v", path, err)
		}
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := prog.Constant(root); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("path %v: %.1f allocs/op, want 0", path, allocs)
		}
	}

	// Value-dependent failure path: nil pointer, still zero allocs.
	prog, err := Compile(rv.Type(), []string{"PtrPtr", "Score"})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := prog.Resolve(rv); err == nil {
			t.Fatal("want nil-pointer error")
		}
	})
	if allocs > 0 {
		t.Errorf("nil-pointer fail path: %.1f allocs/op, want 0", allocs)
	}
}

// TestMethodProgramFewerAllocsThanNameLookup pins the reflective
// method step's win: on a class no Register call has seen (event is
// never registered), a compiled Method(i) call must stay strictly
// cheaper than the MethodByName resolution it replaces. This step still
// allocates for its reflect Call; a registered class's accessor with a
// basic result resolves with none (TestTypedAccessorZeroAllocs).
func TestMethodProgramFewerAllocsThanNameLookup(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ev := event{Company: "co"}
	rv := reflect.ValueOf(ev)
	prog, err := Compile(rv.Type(), []string{"GetCompany"})
	if err != nil {
		t.Fatal(err)
	}
	compiled := testing.AllocsPerRun(300, func() {
		if _, err := prog.Constant(rv.Interface()); err != nil {
			t.Fatal(err)
		}
	})
	reflective := testing.AllocsPerRun(300, func() {
		v, err := filter.ResolvePath(rv, []string{"GetCompany"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := filter.ValueOf(v); err != nil {
			t.Fatal(err)
		}
	})
	if compiled >= reflective {
		t.Errorf("compiled method path allocates %.1f/op, reflective %.1f/op; want strictly fewer", compiled, reflective)
	}
}

// TestMethodStepAllocs pins a concrete receiver's method step: the
// method is called as a function of its receiver, so the step pays the
// reflect Call's allocations (its result slice and the result) and no
// method value. A receiver passed in registers is what it pins: one the
// ABI passes on the stack (event by value) adds the Call's frame.
func TestMethodStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ev := event{Company: "co", Amount: 3}
	for _, tc := range []struct {
		path string
		root reflect.Value
	}{
		{"Price.Cents", reflect.ValueOf(ev)},
		{"Nested.GetScore", reflect.ValueOf(ev)},
		{"AddrAmount", reflect.ValueOf(&ev)},
		{"Nested.PtrLabel", reflect.ValueOf(&ev)},
	} {
		prog, err := Compile(tc.root.Type(), strings.Split(tc.path, "."))
		if err != nil {
			t.Fatal(err)
		}
		if n := allocs.PerRun(300, func() {
			if _, err := prog.Resolve(tc.root); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("%s on %s: %.2f allocations per call, want at most 2", tc.path, tc.root.Type(), n)
		}
	}
}

func TestProgramMetadata(t *testing.T) {
	prog, err := Compile(reflect.TypeOf(event{}), []string{"Nested", "Score"})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Root() != reflect.TypeOf(event{}) {
		t.Errorf("Root() = %v", prog.Root())
	}
	if got := prog.Path(); got != strings.Join([]string{"Nested", "Score"}, ".") {
		t.Errorf("Path() = %q", got)
	}
}

// TestNilInterfaceBehindPointerFailsOpen is the regression test for the
// pointer-to-interface deref: a non-nil pointer to a nil interface must
// resolve to an error (fail-open) in both the reflective fallback and
// the compiled program — reflect.Value.MethodByName/Method panic on
// that shape if probed directly.
func TestNilInterfaceBehindPointerFailsOpen(t *testing.T) {
	ev := event{IfacePtr: new(scorer)}
	rv := reflect.ValueOf(ev)
	path := []string{"IfacePtr", "CurScore"}
	if _, err := filter.ResolvePath(rv, path); err == nil {
		t.Error("oracle resolved a method on a nil interface behind a pointer, want error")
	}
	prog, err := Compile(rv.Type(), path)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := prog.Resolve(rv); err == nil {
		t.Error("program resolved a method on a nil interface behind a pointer, want error")
	}

	// Non-nil all the way down still works.
	var s scorer = inner{Score: 7}
	ev.IfacePtr = &s
	c, err := prog.Constant(ev)
	if err != nil || c.F != 7 {
		t.Fatalf("IfacePtr.CurScore = %+v, %v; want 7", c, err)
	}
}
