package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"govents/internal/obvent"
)

type flatEvent struct {
	B  bool
	I  int
	I8 int8
	U  uint64
	F  float64
	F3 float32
	S  string
	D  time.Duration
}

type inner struct {
	X int
	Y string
}

type richEvent struct {
	Name    string
	Ptr     *inner
	PP      **int
	Sl      []int
	SlS     []string
	By      []byte
	M       map[string]int
	Arr     [3]float64
	Nested  inner
	Cx      complex128
	private int // must not travel
}

func mustCompile(t *testing.T, v any) *Prog {
	t.Helper()
	p, err := Compile(reflect.TypeOf(v), kindsRegistry())
	if err != nil {
		t.Fatalf("Compile(%T): %v", v, err)
	}
	return p
}

// mustAppend is p.Append(nil, v) for a value that must encode.
func mustAppend(t testing.TB, p *Prog, v reflect.Value) []byte {
	t.Helper()
	data, err := p.Append(nil, v)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return data
}

func roundTrip(t *testing.T, p *Prog, v any) any {
	t.Helper()
	data := mustAppend(t, p, reflect.ValueOf(v))
	out := reflect.New(p.Type())
	if err := p.Decode(data, out.Elem()); err != nil {
		t.Fatalf("Decode(%#v): %v", v, err)
	}
	return out.Elem().Interface()
}

func TestRoundTripFlat(t *testing.T) {
	p := mustCompile(t, flatEvent{})
	for _, v := range []flatEvent{
		{},
		{B: true, I: -42, I8: -128, U: math.MaxUint64, F: 3.14, F3: -0.5, S: "hello", D: 5 * time.Second},
		{I: math.MaxInt64, F: math.Inf(-1), S: ""},
		{I: math.MinInt64, F: math.NaN()},
	} {
		got := roundTrip(t, p, v).(flatEvent)
		if v.F != v.F { // NaN
			if got.F == got.F {
				t.Fatalf("NaN not preserved: %v", got.F)
			}
			v.F, got.F = 0, 0
		}
		if got != v {
			t.Fatalf("round trip: got %#v want %#v", got, v)
		}
	}
}

func TestRoundTripRichExact(t *testing.T) {
	p := mustCompile(t, richEvent{})
	two := 2
	ptwo := &two
	for _, v := range []richEvent{
		{},
		{
			Name:   "r",
			Ptr:    &inner{X: 1, Y: "y"},
			PP:     &ptwo,
			Sl:     []int{1, -2, 3},
			SlS:    []string{"a", ""},
			By:     []byte{0, 255},
			M:      map[string]int{"k": -1, "": 0},
			Arr:    [3]float64{1, 2, 3},
			Nested: inner{X: 9},
			Cx:     complex(1.5, -2.5),
		},
		// Nil-vs-empty must round-trip exactly (gob cannot do this).
		{Sl: []int{}, SlS: nil, By: []byte{}, M: map[string]int{}},
		{Ptr: &inner{}}, // pointer to zero value preserved
	} {
		got := roundTrip(t, p, v).(richEvent)
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip: got %#v want %#v", got, v)
		}
		// DeepEqual conflates nil and empty; check nil-ness explicitly.
		if (got.Sl == nil) != (v.Sl == nil) || (got.M == nil) != (v.M == nil) ||
			(got.By == nil) != (v.By == nil) || (got.SlS == nil) != (v.SlS == nil) {
			t.Fatalf("nil-ness not preserved: got %#v want %#v", got, v)
		}
	}
}

func TestUnexportedFieldsDoNotTravel(t *testing.T) {
	p := mustCompile(t, richEvent{})
	got := roundTrip(t, p, richEvent{Name: "n", private: 7}).(richEvent)
	if got.private != 0 {
		t.Fatalf("unexported field traveled: %d", got.private)
	}
	if got.Name != "n" {
		t.Fatalf("exported field lost: %q", got.Name)
	}
}

type withIface struct{ V any }
type withChan struct{ C chan int }
type withTime struct{ T time.Time } // custom gob marshaler
type recur struct {
	Next *recur
}
type badKey struct {
	M map[*int]string
}
type withUnsafe struct{ P unsafe.Pointer }
type withChanSlice struct{ Cs []chan int }
type withFuncMap struct{ Fs map[string]func() }

// TestCompileRejects: the compiler refuses only what gob refuses too,
// unsafe.Pointer anywhere and chan or func outside a struct field, and
// compiles every layout it once sent to gob.
func TestCompileRejects(t *testing.T) {
	for _, v := range []any{withUnsafe{}, withChanSlice{}, withFuncMap{}} {
		if _, err := Compile(reflect.TypeOf(v), nil); err == nil {
			t.Errorf("Compile(%T): expected rejection", v)
		}
	}
	for _, v := range []any{withIface{}, withChan{}, withTime{}, recur{}, badKey{}, kindsEvent{}} {
		if _, err := Compile(reflect.TypeOf(v), kindsRegistry()); err != nil {
			t.Errorf("Compile(%T): %v", v, err)
		}
	}
}

func TestDecodeDefensive(t *testing.T) {
	p := mustCompile(t, richEvent{})
	valid := mustAppend(t, p, reflect.ValueOf(richEvent{Name: "x", Sl: []int{1, 2}}))

	// Trailing garbage must not decode.
	out := reflect.New(p.Type()).Elem()
	if err := p.Decode(append(append([]byte{}, valid...), 0), out); err == nil {
		t.Fatal("trailing byte decoded successfully")
	}
	// Every truncation must fail, never panic or misread silently.
	for i := 0; i < len(valid); i++ {
		out := reflect.New(p.Type()).Elem()
		if err := p.Decode(valid[:i], out); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
	// A huge claimed count must be rejected before allocation.
	huge := []byte{0x0b} // Name: string len 11, but no bytes follow
	out = reflect.New(p.Type()).Elem()
	if err := p.Decode(huge, out); err == nil {
		t.Fatal("oversized length decoded successfully")
	}
}

func TestZigzag(t *testing.T) {
	for _, i := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(i)); got != i {
			t.Fatalf("zigzag(%d) round trip = %d", i, got)
		}
	}
}

// goldenLayouts are the values testdata/parent-pr25/golden.txt holds the
// encodings of, as the build before the compiler gained marshalers,
// interfaces and recursion wrote them (mkgolden_test.go.txt there).
// Maps hold at most one entry, so each encoding is one byte string.
func goldenLayouts() []struct {
	name string
	v    any
} {
	two := 2
	ptwo := &two
	return []struct {
		name string
		v    any
	}{
		{"flat/zero", flatEvent{}},
		{"flat/full", flatEvent{B: true, I: -42, I8: -128, U: math.MaxUint64, F: 3.14, F3: -0.5, S: "hello", D: 5 * time.Second}},
		{"flat/max", flatEvent{I: math.MaxInt64, F: math.Inf(-1)}},
		{"flat/min", flatEvent{I: math.MinInt64, F: math.Float64frombits(0x7FF8000000000001)}},
		{"rich/zero", richEvent{}},
		{"rich/full", richEvent{
			Name:   "r",
			Ptr:    &inner{X: 1, Y: "y"},
			PP:     &ptwo,
			Sl:     []int{1, -2, 3},
			SlS:    []string{"a", ""},
			By:     []byte{0, 255},
			M:      map[string]int{"k": -1},
			Arr:    [3]float64{1, 2, 3},
			Nested: inner{X: 9},
			Cx:     complex(1.5, -2.5),
		}},
		{"rich/empty", richEvent{Sl: []int{}, By: []byte{}, M: map[string]int{}}},
		{"rich/pointer-to-zero", richEvent{Ptr: &inner{}}},
		{"rich/private", richEvent{Name: "n", private: 7}},
		{"fuzz/seed", buildFuzzEvent(true, -1, -128, 1<<30, ^uint64(0), 65535, -1.5, 3.25, "hello", []byte{1, 2, 3}, 1, true, -42, "nested")},
	}
}

// TestParentGoldenEncodings: a layout that compiled before the compiler
// gained its new kinds encodes byte for byte as it did then.
func TestParentGoldenEncodings(t *testing.T) {
	f, err := os.Open("testdata/parent-pr25/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, enc, _ := strings.Cut(sc.Text(), " ")
		want[name] = enc
	}
	layouts := goldenLayouts()
	if len(want) != len(layouts) {
		t.Fatalf("golden file holds %d encodings, goldenLayouts %d", len(want), len(layouts))
	}
	for _, l := range layouts {
		got := hex.EncodeToString(mustAppend(t, mustCompile(t, l.v), reflect.ValueOf(l.v)))
		if got != want[l.name] {
			t.Errorf("%s encodes to\n%s, the parent wrote\n%s", l.name, got, want[l.name])
		}
	}
}

// TestNewKindsEncodings pins the bytes of every kind the compiler
// gained: a marshaler's length-prefixed method output, chan and func
// fields skipped, uintptr as a varint, an interface as its class's name
// and length-prefixed encoding (a lone 0 for nil), and a recursive list.
func TestNewKindsEncodings(t *testing.T) {
	type marshaled struct {
		P  point
		C  celsius
		Ch chan int
		Fn func()
		U  uintptr
	}
	type held struct {
		V   any
		Nil any
	}
	at := time.Date(2026, 10, 15, 8, 0, 0, 5, time.UTC)
	timeBytes, err := at.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	name := obvent.TypeName(reflect.TypeOf(note{}))
	noteBody := append([]byte{2, 'h', 'i', byte(len(timeBytes))}, timeBytes...)
	for _, tc := range []struct {
		name string
		v    any
		want []byte
	}{
		{"time.Time", withTime{T: at}, append([]byte{byte(len(timeBytes))}, timeBytes...)},
		{"marshalers, chan, func, uintptr", marshaled{P: point{1, -1}, C: celsius{-215}, Ch: make(chan int), Fn: func() {}, U: 300},
			[]byte{8, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 4, '-', '2', '1', '5', 0xAC, 0x02}},
		{"interface", held{V: note{Text: "hi", At: at}},
			append(append(append([]byte{byte(len(name))}, name...), byte(len(noteBody))), append(noteBody, 0)...)},
		{"recursive list", recur{Next: &recur{Next: &recur{}}}, []byte{1, 1, 0}},
	} {
		if got := mustAppend(t, mustCompile(t, tc.v), reflect.ValueOf(tc.v)); !bytes.Equal(got, tc.want) {
			t.Errorf("%s: got %x, want %x", tc.name, got, tc.want)
		}
		if got := roundTrip(t, mustCompile(t, tc.v), tc.v); tc.name != "marshalers, chan, func, uintptr" && !reflect.DeepEqual(got, tc.v) {
			t.Errorf("%s: round trip %#v, want %#v", tc.name, got, tc.v)
		}
	}
}

// TestDecodeRefusesKinds: each hand-spelled payload of refusedKinds
// fails with its error, without a panic, allocating no more than the
// input spells out.
func TestDecodeRefusesKinds(t *testing.T) {
	p := mustCompile(t, kindsEvent{})
	for _, r := range refusedKinds() {
		v := reflect.New(p.Type()).Elem()
		err := p.Decode(r.data, v)
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: %v, want an error containing %q", r.name, err, r.want)
		}
		if n := testing.AllocsPerRun(20, func() { _ = p.Decode(r.data, reflect.New(p.Type()).Elem()) }); n > float64(len(r.data)) {
			t.Errorf("%s: %v allocations for %d input bytes", r.name, n, len(r.data))
		}
	}
}

// TestNestingBound: a list one node short of a recursion past the bound
// round-trips; one node more fails to encode; a cyclic value fails
// promptly instead of hanging.
func TestNestingBound(t *testing.T) {
	p := mustCompile(t, node{})
	longest := *newList(maxNesting + 1)
	if got := roundTrip(t, p, longest); !reflect.DeepEqual(got, longest) {
		t.Error("the longest list did not round-trip")
	}
	if _, err := p.Append(nil, reflect.ValueOf(*newList(maxNesting + 2))); err == nil || !strings.Contains(err.Error(), "nests deeper") {
		t.Errorf("a list past the bound encoded: %v", err)
	}
	cyclic := &node{V: 1}
	cyclic.Next = cyclic
	if _, err := p.Append(nil, reflect.ValueOf(*cyclic)); err == nil {
		t.Error("a cyclic value encoded")
	}
	// Through interface fields too: a note held by a note held by ...
	type box struct{ V any }
	reg := obvent.NewRegistry()
	reg.MustRegister(nested{})
	bp, err := Compile(reflect.TypeOf(box{}), reg)
	if err != nil {
		t.Fatal(err)
	}
	var v any = nested{}
	for i := 0; i <= maxNesting; i++ {
		v = nested{V: v}
	}
	if _, err := bp.Append(nil, reflect.ValueOf(box{V: v})); err == nil || !strings.Contains(err.Error(), "nests deeper") {
		t.Errorf("interface nesting past the bound encoded: %v", err)
	}
}

// nested is a registered class that holds another value in an interface.
type nested struct {
	obvent.Base
	V any
}

// TestInterfaceFieldNeedsRegisteredClass: encoding refuses a value whose
// class is not registered, or is a pointer to one, and a program with no
// registry refuses any held value.
func TestInterfaceFieldNeedsRegisteredClass(t *testing.T) {
	p := mustCompile(t, withIface{})
	for _, v := range []any{inner{X: 1}, &note{}, 7} {
		if _, err := p.Append(nil, reflect.ValueOf(withIface{V: v})); err == nil || !strings.Contains(err.Error(), "not a registered class") {
			t.Errorf("%T in an interface field: %v", v, err)
		}
	}
	bare, err := Compile(reflect.TypeOf(withIface{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Append(nil, reflect.ValueOf(withIface{V: note{}})); err == nil {
		t.Error("a program without a registry encoded an interface field")
	}
	if data := mustAppend(t, bare, reflect.ValueOf(withIface{})); !bytes.Equal(data, []byte{0}) {
		t.Errorf("nil interface = %x, want 00", data)
	}
}

// sliceNote is a registered class that is not comparable.
type sliceNote struct {
	obvent.Base
	Tags []string
}

// TestMapKeyMustBeComparable: a map keyed by an interface can be sent a
// class that is not comparable; decoding refuses it instead of
// panicking in the map insert.
func TestMapKeyMustBeComparable(t *testing.T) {
	type keyed struct{ M map[any]int }
	reg := kindsRegistry()
	reg.MustRegister(sliceNote{})
	p, err := Compile(reflect.TypeOf(keyed{}), reg)
	if err != nil {
		t.Fatal(err)
	}
	ok := keyed{M: map[any]int{note{Text: "k"}: 1}}
	if got := roundTrip(t, p, ok); !reflect.DeepEqual(got, ok) {
		t.Errorf("round trip = %#v, want %#v", got, ok)
	}
	name := obvent.TypeName(reflect.TypeOf(sliceNote{}))
	body := []byte{2, 1, 'x'} // Tags: one element, "x"
	data := append(append(append([]byte{2, byte(len(name))}, name...), byte(len(body))), body...)
	data = append(data, 2) // the value, 1
	if err := p.Decode(data, reflect.New(p.Type()).Elem()); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("a non-comparable key decoded: %v", err)
	}
}
