package accessor

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"govents/internal/allocs"
	"govents/internal/filter"
)

// typedEvent is a registered class: an accessor for every basic result
// kind, accessors promoted through a nil-able embedded pointer (they
// panic when it is nil), a named result, and a pointer-receiver
// accessor that a value root cannot reach.
type typedEvent struct {
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

// directPaths name accessors the getter table covers; reflectivePaths
// resolve, when they do, through the reflective step.
var (
	directPaths = []string{
		"GetB", "GetS", "GetI", "GetI8", "GetI16", "GetI32", "GetI64",
		"GetU", "GetU8", "GetU16", "GetU32", "GetU64", "GetF32", "GetF64",
		"GetScore", "CurScore", "PtrLabel", // promoted through *inner
	}
	reflectivePaths = []string{"GetPrice", "I", "S", "U64", "Score", "Label"}
	hopelessPaths   = []string{"AddrI", "Pair", "Missing"}
)

func init() { Register[typedEvent]() }

func mkTypedEvent(rng *rand.Rand) typedEvent {
	uints := []uint64{0, 1, 1<<62 - 1, 1 << 62, 1<<62 + 1, math.MaxUint64, rng.Uint64()}
	floats := []float64{0, -1.5, math.NaN(), math.Inf(1), rng.NormFloat64() * 1e6}
	strs := []string{"", "a", "Telco Mobiles"}
	ev := typedEvent{
		B:   rng.Intn(2) == 0,
		S:   strs[rng.Intn(len(strs))],
		I:   int(rng.Uint64()),
		I8:  int8(rng.Uint32()),
		I16: int16(rng.Uint32()),
		I32: int32(rng.Uint32()),
		I64: int64(rng.Uint64()),
		U:   uint(uints[rng.Intn(len(uints))]),
		U8:  uint8(rng.Uint32()),
		U16: uint16(rng.Uint32()),
		U32: uint32(rng.Uint32()),
		U64: uints[rng.Intn(len(uints))],
		F32: float32(floats[rng.Intn(len(floats))]),
		F64: floats[rng.Intn(len(floats))],
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

// TestTypedAccessorMatchesResolvePath is the equivalence property of
// the direct-call step: over random values of a registered class, a
// program whose accessor is a getter gives the constant the reflective
// oracle (filter.ResolvePath + filter.ValueOf) gives and fails on the
// same values, and its failures are exactly the reflective step's
// errors. Named results keep the reflective step with the same
// outcome; a pointer-receiver accessor still does not resolve from a
// value root.
func TestTypedAccessorMatchesResolvePath(t *testing.T) {
	root := reflect.TypeOf(typedEvent{})
	progs := map[string]*Program{}
	for _, path := range append(append([]string{}, directPaths...), reflectivePaths...) {
		p, err := Compile(root, []string{path})
		if err != nil {
			t.Fatalf("Compile(%s): %v", path, err)
		}
		progs[path] = p
	}
	for _, path := range directPaths {
		if progs[path].direct == nil {
			t.Errorf("%s: no direct getter", path)
		}
	}
	for _, path := range reflectivePaths {
		if progs[path].direct != nil {
			t.Errorf("%s: direct getter, want the reflective step", path)
		}
	}
	for _, path := range hopelessPaths {
		if _, err := Compile(root, []string{path}); err == nil {
			t.Errorf("Compile(%s) succeeded on a value root, want error", path)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ev := mkTypedEvent(rng)
		var boxed any = ev
		for path, prog := range progs {
			v, wantErr := filter.ResolvePath(reflect.ValueOf(ev), []string{path})
			var want filter.Constant
			if wantErr == nil {
				want, wantErr = filter.ValueOf(v)
			}
			got, gotErr := prog.Constant(boxed)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s on %+v: program err=%v, oracle err=%v", path, ev, gotErr, wantErr)
			}
			if gotErr == nil && !sameConstant(got, want) {
				t.Fatalf("%s on %+v: program=%+v oracle=%+v", path, ev, got, want)
			}
			if prog.direct == nil {
				continue
			}
			reflective := *prog
			reflective.direct = nil
			rgot, rerr := reflective.Constant(boxed)
			if (gotErr == nil) != (rerr == nil) || (rerr != nil && gotErr.Error() != rerr.Error()) {
				t.Fatalf("%s on %+v: direct err=%v, reflective step err=%v", path, ev, gotErr, rerr)
			}
			if gotErr == nil && !sameConstant(got, rgot) {
				t.Fatalf("%s on %+v: direct=%+v reflective step=%+v", path, ev, got, rgot)
			}
		}
	}
}

// TestTypedAccessorZeroAllocs pins the direct step's cost: no heap
// allocation per resolution, where the reflective step pays for its
// reflect Call (TestMethodProgramFewerAllocsThanNameLookup).
func TestTypedAccessorZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var ev any = typedEvent{inner: &inner{Score: 1, Label: "x"}, S: "s", U64: 7, F64: 2}
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

// racyEvent is registered only by TestTypedAccessorConcurrentRegister.
type racyEvent struct{ N int }

func (e racyEvent) GetN() int { return e.N }

// TestTypedAccessorConcurrentRegister runs Register (what concurrent
// Subscribe calls do) against Compile and Constant (what matchers do,
// with no lock): every program resolves to the same value, whether it
// was compiled before its class's table existed or after.
func TestTypedAccessorConcurrentRegister(t *testing.T) {
	var wg sync.WaitGroup
	var ev any = racyEvent{N: 42}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					Register[racyEvent]()
				}
				prog, err := Compile(reflect.TypeOf(ev), []string{"GetN"})
				if err != nil {
					t.Error(err)
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
	prog, err := Compile(reflect.TypeOf(ev), []string{"GetN"})
	if err != nil || prog.direct == nil {
		t.Fatalf("after Register: direct=%v, err=%v; want a direct getter", prog != nil && prog.direct != nil, err)
	}
}
