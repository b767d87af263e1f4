package accessor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"govents/internal/allocs"
	"govents/internal/filter"
)

// typedEvent has an accessor for every basic result kind, accessors
// promoted through a nil-able embedded pointer (they panic when it is
// nil) and from an embedded struct, one that panics on odd values, a
// named result, and a pointer-receiver accessor that a value root
// cannot reach.
type typedEvent struct {
	embedded
	*inner
	B   bool
	S   string
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64
}

func (e typedEvent) GetB() bool       { return e.B }
func (e typedEvent) GetS() string     { return e.S }
func (e typedEvent) GetI() int        { return e.I }
func (e typedEvent) GetI8() int8      { return e.I8 }
func (e typedEvent) GetI16() int16    { return e.I16 }
func (e typedEvent) GetI32() int32    { return e.I32 }
func (e typedEvent) GetI64() int64    { return e.I64 }
func (e typedEvent) GetU() uint       { return e.U }
func (e typedEvent) GetU8() uint8     { return e.U8 }
func (e typedEvent) GetU16() uint16   { return e.U16 }
func (e typedEvent) GetU32() uint32   { return e.U32 }
func (e typedEvent) GetU64() uint64   { return e.U64 }
func (e typedEvent) GetF32() float32  { return e.F32 }
func (e typedEvent) GetF64() float64  { return e.F64 }
func (e typedEvent) GetPrice() price  { return price(e.F64) } // named result
func (e *typedEvent) AddrI() int      { return e.I }          // pointer receiver
func (e typedEvent) Pair() (int, int) { return e.I, e.I }     // malformed accessor

// OddI panics on an even I.
func (e typedEvent) OddI() int {
	if e.I%2 == 0 {
		panic(fmt.Sprintf("even: %d", e.I))
	}
	return e.I
}

// zeroSize is a class with no state: an interface holds it at an
// address all zero-size values share.
type zeroSize struct{}

func (zeroSize) GetN() int   { return 7 }
func (zeroSize) Fail() int64 { panic("zeroSize") }

// viaPointerOnly is a class an interface holds by value: its one field
// is a pointer, so the interface's data word is that pointer.
type viaPointerOnly struct{ *inner }

// directPaths name accessors the getter table covers; reflectivePaths
// resolve, when they do, through the reflective step.
var (
	directPaths = []string{
		"GetB", "GetS", "GetI", "GetI8", "GetI16", "GetI32", "GetI64",
		"GetU", "GetU8", "GetU16", "GetU32", "GetU64", "GetF32", "GetF64",
		"GetScore", "CurScore", "PtrLabel", // promoted through *inner
		"GetRegion", // promoted from embedded
		"OddI",      // panics on even values
	}
	reflectivePaths = []string{"GetPrice", "I", "S", "U64", "Score", "Label", "Region"}
	hopelessPaths   = []string{"AddrI", "Pair", "Missing"}
)

func mkTypedEvent(rng *rand.Rand) typedEvent {
	uints := []uint64{0, 1, 1<<62 - 1, 1 << 62, 1<<62 + 1, math.MaxUint64, rng.Uint64()}
	floats := []float64{0, -1.5, math.NaN(), math.Inf(1), rng.NormFloat64() * 1e6}
	strs := []string{"", "a", "Telco Mobiles"}
	ev := typedEvent{
		embedded: embedded{Region: strs[rng.Intn(len(strs))]},
		B:        rng.Intn(2) == 0,
		S:        strs[rng.Intn(len(strs))],
		I:        int(rng.Uint64()),
		I8:       int8(rng.Uint32()),
		I16:      int16(rng.Uint32()),
		I32:      int32(rng.Uint32()),
		I64:      int64(rng.Uint64()),
		U:        uint(uints[rng.Intn(len(uints))]),
		U8:       uint8(rng.Uint32()),
		U16:      uint16(rng.Uint32()),
		U32:      uint32(rng.Uint32()),
		U64:      uints[rng.Intn(len(uints))],
		F32:      float32(floats[rng.Intn(len(floats))]),
		F64:      floats[rng.Intn(len(floats))],
	}
	if rng.Intn(2) == 0 {
		ev.inner = &inner{Score: floats[rng.Intn(len(floats))], Label: strs[rng.Intn(len(strs))]}
	}
	return ev
}

// sameConstant is == with NaN equal to itself.
func sameConstant(a, b filter.Constant) bool {
	if a.Kind == filter.ConstFloat && b.Kind == filter.ConstFloat && math.IsNaN(a.F) && math.IsNaN(b.F) {
		a.F, b.F = 0, 0
	}
	return a == b
}

// sameOutcome fails the test unless the direct getter of prog and its
// reflective step (Resolve + filter.ValueOf) give event the same
// constant or the same error, and agree with the reflective oracle
// (filter.ResolvePath + filter.ValueOf) on success and on the constant.
func sameOutcome(t *testing.T, prog *Program, event any) {
	t.Helper()
	path := prog.Path()
	v, wantErr := filter.ResolvePath(reflect.ValueOf(event), []string{path})
	var want filter.Constant
	if wantErr == nil {
		want, wantErr = filter.ValueOf(v)
	}
	got, gotErr := prog.Constant(event)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s on %+v: program err=%v, oracle err=%v", path, event, gotErr, wantErr)
	}
	if gotErr == nil && !sameConstant(got, want) {
		t.Fatalf("%s on %+v: program=%+v oracle=%+v", path, event, got, want)
	}
	if prog.direct == nil {
		return
	}
	reflective := *prog
	reflective.direct = nil
	rgot, rerr := reflective.Constant(event)
	if (gotErr == nil) != (rerr == nil) || (rerr != nil && gotErr.Error() != rerr.Error()) {
		t.Fatalf("%s on %+v: direct err=%v, reflective step err=%v", path, event, gotErr, rerr)
	}
	if gotErr == nil && !sameConstant(got, rgot) {
		t.Fatalf("%s on %+v: direct=%+v reflective step=%+v", path, event, got, rgot)
	}
}

// compileAll compiles each one-segment path against root and checks
// that exactly the paths in direct got a getter.
func compileAll(t *testing.T, root reflect.Type, paths, direct []string) []*Program {
	t.Helper()
	wantDirect := map[string]bool{}
	for _, p := range direct {
		wantDirect[p] = true
	}
	var progs []*Program
	for _, path := range paths {
		p, err := Compile(root, []string{path})
		if err != nil {
			t.Fatalf("Compile(%s, %s): %v", root, path, err)
		}
		if got := p.direct != nil; got != wantDirect[path] {
			t.Errorf("%s.%s: direct getter %v, want %v", root, path, got, wantDirect[path])
		}
		progs = append(progs, p)
	}
	return progs
}

// TestTypedAccessorMatchesResolvePath is the equivalence property of
// the direct-call step, on classes no code has named anywhere but here:
// over random values, a program whose accessor is a getter gives the
// constant the reflective step and the reflective oracle give and fails
// on the same values with the reflective step's error, for every basic
// result kind, an accessor that panics, methods promoted through a nil
// embedded pointer and from an embedded struct, and a zero-size class.
// Named results keep the reflective step with the same outcome; a
// pointer-receiver accessor still does not resolve from a value root;
// a pointer-shaped class and a pointer root get no getter at all.
func TestTypedAccessorMatchesResolvePath(t *testing.T) {
	root := reflect.TypeOf(typedEvent{})
	progs := compileAll(t, root, append(append([]string{}, directPaths...), reflectivePaths...), directPaths)
	for _, path := range hopelessPaths {
		if _, err := Compile(root, []string{path}); err == nil {
			t.Errorf("Compile(%s) succeeded on a value root, want error", path)
		}
	}
	zero := compileAll(t, reflect.TypeOf(zeroSize{}), []string{"GetN", "Fail"}, []string{"GetN", "Fail"})
	shaped := compileAll(t, reflect.TypeOf(viaPointerOnly{}), []string{"GetScore", "CurScore", "PtrLabel"}, nil)
	byPointer := compileAll(t, reflect.TypeOf(&typedEvent{}), []string{"GetI", "GetS", "AddrI"}, nil)
	for _, p := range zero {
		sameOutcome(t, p, zeroSize{})
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ev := mkTypedEvent(rng)
		for _, prog := range progs {
			sameOutcome(t, prog, ev)
		}
		for _, prog := range shaped {
			sameOutcome(t, prog, viaPointerOnly{ev.inner})
		}
		for _, prog := range byPointer {
			sameOutcome(t, prog, &ev)
		}
	}
}

// TestTypedAccessorZeroAllocs pins the direct step's cost on a class no
// code has subscribed (or named anywhere but here): no heap allocation
// per resolution, where the reflective step pays for its reflect Call
// (TestMethodStepAllocs).
func TestTypedAccessorZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var ev any = typedEvent{inner: &inner{Score: 1, Label: "x"}, S: "s", U64: 7, F64: 2, I: 3}
	for _, path := range directPaths {
		prog, err := Compile(reflect.TypeOf(ev), []string{path})
		if err != nil {
			t.Fatal(err)
		}
		if n := allocs.PerRun(500, func() {
			if _, err := prog.Constant(ev); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %.3f allocs/op, want 0", path, n)
		}
	}
}

// racyEvent is compiled only by TestTypedAccessorConcurrentCompile.
type racyEvent struct{ N, M int }

func (e racyEvent) GetN() int { return e.N }

// TestTypedAccessorConcurrentCompile runs first Compiles of one class
// (what matchers compiling their plans do, each building or finding the
// class's getter table) beside Constant calls (what matchers do, with
// no lock): every program gets a direct getter and resolves to the
// same value, and the class keeps the one table stored first.
func TestTypedAccessorConcurrentCompile(t *testing.T) {
	var wg sync.WaitGroup
	var ev any = racyEvent{N: 42}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				prog, err := Compile(reflect.TypeOf(ev), []string{"GetN"})
				if err != nil {
					t.Error(err)
					return
				}
				if prog.direct == nil {
					t.Error("GetN: no direct getter")
					return
				}
				if c, err := prog.Constant(ev); err != nil || c.I != 42 {
					t.Errorf("GetN = %+v, %v; want 42", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stored, ok := getters.Load(reflect.TypeOf(ev))
	if !ok || reflect.ValueOf(stored).Pointer() != reflect.ValueOf(gettersFor(reflect.TypeOf(ev))).Pointer() {
		t.Fatalf("racyEvent: table stored %v, and gettersFor returns another", ok)
	}
}
