package wire

import (
	"math"
	"reflect"
	"testing"
	"time"

	"govents/internal/filter"
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
	p, err := Compile(reflect.TypeOf(v))
	if err != nil {
		t.Fatalf("Compile(%T): %v", v, err)
	}
	return p
}

func roundTrip(t *testing.T, p *Prog, v any) any {
	t.Helper()
	data := p.Append(nil, reflect.ValueOf(v))
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

func TestCompileRejects(t *testing.T) {
	for _, v := range []any{withIface{}, withChan{}, withTime{}, recur{}, badKey{}} {
		if _, err := Compile(reflect.TypeOf(v)); err == nil {
			t.Fatalf("Compile(%T): expected rejection", v)
		}
	}
}

func TestDecodeDefensive(t *testing.T) {
	p := mustCompile(t, richEvent{})
	valid := p.Append(nil, reflect.ValueOf(richEvent{Name: "x", Sl: []int{1, 2}}))

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

func TestExtractorFlat(t *testing.T) {
	type ev struct {
		A int
		B string
		C float64
		D bool
	}
	p := mustCompile(t, ev{})
	et := reflect.TypeOf(ev{})
	// Chains: C, A, B, D and one non-extractable (nil).
	ex, err := CompileExtract(et, [][]int{{2}, {0}, {1}, {3}, nil})
	if err != nil {
		t.Fatalf("CompileExtract: %v", err)
	}
	if ex.AllAble() {
		t.Fatal("AllAble with a nil chain")
	}
	for i, want := range []bool{true, true, true, true, false} {
		if ex.Able(i) != want {
			t.Fatalf("Able(%d) = %v", i, ex.Able(i))
		}
	}
	v := ev{A: -7, B: "str", C: 2.5, D: true}
	data := p.Append(nil, reflect.ValueOf(v))
	vals := make([]filter.Constant, 5)
	ok := make([]bool, 5)
	if err := ex.Extract(data, vals, ok); err != nil {
		t.Fatalf("Extract: %v", err)
	}
	want := []filter.Constant{
		{Kind: filter.ConstFloat, F: 2.5},
		{Kind: filter.ConstInt, I: -7},
		{Kind: filter.ConstString, S: "str"},
		{Kind: filter.ConstBool, B: true},
		{},
	}
	for i := range want {
		if ok[i] != (i < 4) || (ok[i] && vals[i] != want[i]) {
			t.Fatalf("slot %d: ok=%v val=%#v want %#v", i, ok[i], vals[i], want[i])
		}
	}
}

func TestExtractorNested(t *testing.T) {
	type leaf struct {
		V int
	}
	type ev struct {
		Skip []string
		P    *leaf
		Tail string
	}
	p := mustCompile(t, ev{})
	et := reflect.TypeOf(ev{})
	// Chain P(-1 deref).V and Tail.
	ex, err := CompileExtract(et, [][]int{{1, -1, 0}, {2}})
	if err != nil {
		t.Fatalf("CompileExtract: %v", err)
	}
	if !ex.AllAble() {
		t.Fatal("expected all chains extractable")
	}
	vals := make([]filter.Constant, 2)
	ok := make([]bool, 2)

	v := ev{Skip: []string{"a", "b"}, P: &leaf{V: 11}, Tail: "t"}
	data := p.Append(nil, reflect.ValueOf(v))
	if err := ex.Extract(data, vals, ok); err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if !ok[0] || vals[0] != (filter.Constant{Kind: filter.ConstInt, I: 11}) {
		t.Fatalf("slot 0: ok=%v val=%#v", ok[0], vals[0])
	}
	if !ok[1] || vals[1].S != "t" {
		t.Fatalf("slot 1: ok=%v val=%#v", ok[1], vals[1])
	}

	// Nil pointer: slot 0 unresolved, slot 1 still resolves.
	v = ev{Tail: "u"}
	data = p.Append(nil, reflect.ValueOf(v))
	if err := ex.Extract(data, vals, ok); err != nil {
		t.Fatalf("Extract nil ptr: %v", err)
	}
	if ok[0] {
		t.Fatal("slot through nil pointer resolved")
	}
	if !ok[1] || vals[1].S != "u" {
		t.Fatalf("slot 1 after nil: ok=%v val=%#v", ok[1], vals[1])
	}
}

func TestExtractorCorruptFallsBack(t *testing.T) {
	type ev struct {
		S string
		V int
	}
	ex, err := CompileExtract(reflect.TypeOf(ev{}), [][]int{{1}})
	if err != nil {
		t.Fatalf("CompileExtract: %v", err)
	}
	vals := make([]filter.Constant, 1)
	ok := make([]bool, 1)
	// String claims 200 bytes, input ends: must error, not panic.
	if err := ex.Extract([]byte{200, 1}, vals, ok); err == nil {
		t.Fatal("corrupt payload extracted successfully")
	}
}

func TestZigzag(t *testing.T) {
	for _, i := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(i)); got != i {
			t.Fatalf("zigzag(%d) round trip = %d", i, got)
		}
	}
}
