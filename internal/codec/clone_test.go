package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"govents/internal/obvent"
)

// The clone menagerie: every reference shape a class can hold, each
// cloned by one decode of the payload.

type leaf struct {
	Name  string
	Score float64
}

type ptrQuote struct {
	obvent.Base
	Company string
	Detail  *leaf
	Tags    []string
	Scores  []float64
	Meta    map[string]int
	Deep    map[string][]*leaf
	Nest    struct {
		Inner  *leaf
		Matrix [][]int
	}
	Arr     [3]*leaf
	PtrPtr  **leaf
	private *leaf // unexported: never travels, always zero in a clone
}

type recNode struct {
	obvent.Base
	V    int
	Next *recNode
}

type ifaceEvent struct {
	obvent.Base
	Payload any
}

type chanEvent struct {
	obvent.Base
	C chan int
	N int
}

type ptrKeyEvent struct {
	obvent.Base
	M map[*leaf]int
}

type arrPtrKeyEvent struct {
	obvent.Base
	M map[[2]*leaf]string
}

type unsafeEvent struct {
	obvent.Base
	P unsafe.Pointer
}

func randLeafPtr(rng *rand.Rand) *leaf {
	if rng.Intn(4) == 0 {
		return nil
	}
	return &leaf{Name: fmt.Sprintf("L%d", rng.Intn(100)), Score: rng.Float64()*100 + 0.5}
}

func randPtrQuote(rng *rand.Rand) ptrQuote {
	q := ptrQuote{
		Company: fmt.Sprintf("co-%d", rng.Intn(50)),
		Detail:  randLeafPtr(rng),
	}
	// Slices: nil, or populated (gob, the oracle, collapses empty to nil
	// at field level, so random lengths start at 1).
	if rng.Intn(3) > 0 {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			q.Tags = append(q.Tags, fmt.Sprintf("t%d", rng.Intn(10)))
			q.Scores = append(q.Scores, rng.Float64())
		}
	}
	if rng.Intn(3) > 0 {
		q.Meta = map[string]int{}
		for i := 0; i < 1+rng.Intn(4); i++ {
			q.Meta[fmt.Sprintf("k%d", i)] = rng.Intn(1000)
		}
	}
	if rng.Intn(3) > 0 {
		// gob rejects nil pointers inside slices and maps, so container
		// elements are always non-nil.
		q.Deep = map[string][]*leaf{}
		for i := 0; i < 1+rng.Intn(3); i++ {
			var ls []*leaf
			for j := 0; j < 1+rng.Intn(3); j++ {
				ls = append(ls, &leaf{Name: fmt.Sprintf("L%d", rng.Intn(100)), Score: rng.Float64()})
			}
			q.Deep[fmt.Sprintf("d%d", i)] = ls
		}
	}
	q.Nest.Inner = randLeafPtr(rng)
	if rng.Intn(2) == 0 {
		q.Nest.Matrix = [][]int{{rng.Intn(9)}, {rng.Intn(9), rng.Intn(9)}}
	}
	// gob rejects nil elements even in an otherwise zero pointer array.
	for i := range q.Arr {
		q.Arr[i] = &leaf{Name: fmt.Sprintf("A%d", i), Score: rng.Float64()}
	}
	if rng.Intn(3) == 0 {
		p := randLeafPtr(rng)
		if p != nil {
			q.PtrPtr = &p
		}
	}
	return q
}

// gobRoundTrip is the oracle: what gob makes of in.
func gobRoundTrip[T any](t *testing.T, in T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCloneMatchesGobRoundTrip is the randomized equivalence check: for
// a pointer-bearing class, a clone must be reflect.DeepEqual to a gob
// round trip of the published value, for every generated value shape
// (nil pointers, nil and populated slices and maps, nested reference
// kinds, multi-level pointers).
func TestCloneMatchesGobRoundTrip(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(ptrQuote{})
	c := New(reg)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		in := randPtrQuote(rng)
		env, err := c.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(env)
		if err != nil {
			t.Fatal(err)
		}
		if want := gobRoundTrip(t, in); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d:\nclone: %+v\n  gob: %+v", i, got, want)
		}
	}
}

// TestPointerCloneIndependence proves obvent local uniqueness (§2.1.2)
// on the decode path: clones share no mutable state with each other,
// and a write to one is in no later clone.
func TestPointerCloneIndependence(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(ptrQuote{})
	c := New(reg)
	in := ptrQuote{
		Company: "Acme",
		Detail:  &leaf{Name: "d", Score: 1},
		Tags:    []string{"a", "b"},
		Meta:    map[string]int{"k": 1},
		Deep:    map[string][]*leaf{"x": {{Name: "deep"}}},
	}
	in.Nest.Inner = &leaf{Name: "n"}
	in.Arr = [3]*leaf{{Name: "a0"}, {Name: "arr"}, {Name: "a2"}}

	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Source(env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	qa, qb := a.(ptrQuote), b.(ptrQuote)

	// Mutate everything reachable through references in clone a.
	qa.Detail.Name = "MUT"
	qa.Tags[0] = "MUT"
	qa.Meta["k"] = -1
	qa.Deep["x"][0].Name = "MUT"
	qa.Nest.Inner.Name = "MUT"
	qa.Arr[1].Name = "MUT"

	if qb.Detail.Name != "d" || qb.Tags[0] != "a" || qb.Meta["k"] != 1 ||
		qb.Deep["x"][0].Name != "deep" || qb.Nest.Inner.Name != "n" || qb.Arr[1].Name != "arr" {
		t.Fatalf("mutating clone a leaked into clone b: %+v", qb)
	}
	cAgain, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	qc := cAgain.(ptrQuote)
	if qc.Detail.Name != "d" || qc.Tags[0] != "a" || qc.Deep["x"][0].Name != "deep" {
		t.Fatalf("mutating clone a showed in a later clone: %+v", qc)
	}
}

// TestCloneDecodesPerClone: N clones of a pointer-bearing class are N
// decodes of the payload, each an object of its own, and a clone taken
// after subscribers wrote to theirs carries none of the writes.
func TestCloneDecodesPerClone(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(ptrQuote{})
	c := New(reg)
	in := ptrQuote{Company: "Acme", Detail: &leaf{Name: "d"}, Tags: []string{"a", "b"}, Meta: map[string]int{"k": 1}}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5} {
		src, err := c.Source(env)
		if err != nil {
			t.Fatal(err)
		}
		before := c.WireStats().Decodes
		clones := make([]ptrQuote, n)
		for i := range clones {
			o, err := src.Clone()
			if err != nil {
				t.Fatal(err)
			}
			clones[i] = o.(ptrQuote)
		}
		if got := c.WireStats().Decodes - before; got != uint64(n) {
			t.Errorf("%d clones took %d decodes, want %d", n, got, n)
		}
		for i := range clones {
			// Everything each clone reaches is its own: write through all
			// of it, then look at the others.
			clones[i].Detail.Name = fmt.Sprint("mut", i)
			clones[i].Tags[0] = fmt.Sprint("mut", i)
			clones[i].Meta["k"] = -i - 1
		}
		for i, q := range clones {
			if q.Detail.Name != fmt.Sprint("mut", i) || q.Tags[0] != fmt.Sprint("mut", i) || q.Meta["k"] != -i-1 {
				t.Errorf("%d clones: clone %d shares state with another: %+v", n, i, q)
			}
		}
		again, err := src.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if q := again.(ptrQuote); q.Detail.Name != "d" || q.Tags[0] != "a" || q.Meta["k"] != 1 {
			t.Errorf("%d clones: a later clone carries a subscriber's writes: %+v", n, q)
		}
	}
}

// TestEncodeRefusesWhatGobRefuses: the layouts a deep copy once could
// not handle (recursion, interfaces, chans, pointer-bearing map keys)
// all encode and clone; the one the compiler refuses, unsafe.Pointer,
// gob refuses too, and Encode says so, deciding once per class.
func TestEncodeRefusesWhatGobRefuses(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(leafEvent{})
	c := New(reg)
	l := &leaf{Name: "k"}
	for _, o := range []obvent.Obvent{
		recNode{V: 1, Next: &recNode{V: 2}},
		ifaceEvent{Payload: leafEvent{Leaf: leaf{Name: "held"}}},
		chanEvent{C: make(chan int), N: 3},
		ptrKeyEvent{M: map[*leaf]int{l: 1}},
		arrPtrKeyEvent{M: map[[2]*leaf]string{{l, l}: "v"}},
	} {
		if _, err := c.Clone(o); err != nil {
			t.Errorf("%T: %v", o, err)
		}
	}
	for i := 0; i < 2; i++ {
		_, err := c.Encode(unsafeEvent{})
		if err == nil || !strings.Contains(err.Error(), "unsafe.Pointer") {
			t.Errorf("Encode(unsafeEvent) = %v, want an error naming unsafe.Pointer", err)
		}
	}
	if st := c.WireStats(); st.Rejects != 1 || st.Compiles != 5 {
		t.Errorf("WireStats = %+v, want 1 reject and 5 compiles (each class decided once)", st)
	}
}

// leafEvent is a registered class an interface field can hold.
type leafEvent struct {
	obvent.Base
	Leaf leaf
}

// TestRecursiveClassClones: a recursive list travels and clones intact,
// and a cyclic value fails Encode at the nesting bound instead of
// hanging.
func TestRecursiveClassClones(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(recNode{})
	c := New(reg)
	in := recNode{V: 1, Next: &recNode{V: 2, Next: &recNode{V: 3}}}
	o, err := c.Clone(in)
	if err != nil {
		t.Fatal(err)
	}
	got := o.(recNode)
	if got.V != 1 || got.Next == nil || got.Next.V != 2 || got.Next.Next == nil || got.Next.Next.V != 3 {
		t.Fatalf("clone mangled the list: %+v", got)
	}
	if got.Next == in.Next {
		t.Fatal("clone shares a node with the published list")
	}

	cyclic := &recNode{V: 1}
	cyclic.Next = cyclic
	done := make(chan error, 1)
	go func() {
		_, err := c.Encode(*cyclic)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "nests deeper") {
			t.Errorf("Encode(cyclic) = %v, want the nesting bound's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Encode of a cyclic value did not return")
	}
}

// TestWireCompilesOncePerClass pins the compile counters: one compile
// per class, decided once.
func TestWireCompilesOncePerClass(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(ptrQuote{})
	c := New(reg)
	in := ptrQuote{Company: "x", Detail: &leaf{}}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Source(env); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.WireStats(); st.Compiles != 1 || st.Rejects != 0 {
		t.Errorf("WireStats = %+v, want exactly 1 compile", st)
	}
}

// gobCounter is big.Int's pattern: custom gob marshaling that rebuilds
// unexported reference state at decode time.
type gobCounter struct {
	vals []int // unexported: only GobDecode populates it
}

func (g gobCounter) GobEncode() ([]byte, error) {
	out := make([]byte, len(g.vals))
	for i, v := range g.vals {
		out[i] = byte(v)
	}
	return out, nil
}

func (g *gobCounter) GobDecode(data []byte) error {
	g.vals = make([]int, len(data))
	for i, b := range data {
		g.vals[i] = int(b)
	}
	return nil
}

type customGobEvent struct {
	obvent.Base
	Name    string
	Counter gobCounter
	Detail  *leaf
}

// TestMarshalerClonesAreIndependent: a field with a marshaler travels as
// its method's output, and each clone runs GobDecode afresh, so clones
// do not share the unexported state it rebuilds.
func TestMarshalerClonesAreIndependent(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(customGobEvent{})
	c := New(reg)
	in := customGobEvent{Name: "x", Counter: gobCounter{vals: []int{1, 2, 3}}, Detail: &leaf{Name: "d"}}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Source(env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := a.(customGobEvent), b.(customGobEvent)
	if !reflect.DeepEqual(ga.Counter.vals, []int{1, 2, 3}) || !reflect.DeepEqual(gb.Counter.vals, []int{1, 2, 3}) {
		t.Fatalf("custom decode lost state: %+v / %+v", ga.Counter, gb.Counter)
	}
	ga.Counter.vals[0] = -1
	if gb.Counter.vals[0] != 1 {
		t.Fatal("clones share GobDecode-rebuilt unexported state")
	}
}

// sensorReading is a Timely class: TimelyBase carries a time.Time, which
// travels as its GobEncode output.
type sensorReading struct {
	obvent.Base
	obvent.TimelyBase
	Sensor string
	Value  float64
	Seq    int
}

// TestTimelyClassTravelsCompact pins what a Timely class costs now that
// its time.Time has a compiled encoding: a payload of tens of bytes, and
// an encode and a clone of a few allocations (a gob payload was 210
// bytes, 26 allocations to encode and 204 to clone).
func TestTimelyClassTravelsCompact(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(sensorReading{})
	c := New(reg)
	in := sensorReading{
		TimelyBase: obvent.TimelyBase{TTL: time.Second, BirthTime: time.Now().Round(0)},
		Sensor:     "s-1", Value: 21.5, Seq: 7,
	}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(env.Payload); n > 48 {
		t.Errorf("payload is %d bytes, want <= 48", n)
	}
	got, err := c.Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(sensorReading); !g.BirthTime.Equal(in.BirthTime) || g.TTL != in.TTL || g.Sensor != in.Sensor || g.Value != in.Value || g.Seq != in.Seq {
		t.Errorf("round trip = %+v, want %+v", g, in)
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.Encode(in); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("Encode: %v allocs, want <= 5", n)
	}
	var src CloneSource
	if n := testing.AllocsPerRun(200, func() {
		if err := c.SourceInto(env, &src); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Clone(); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("SourceInto + Clone: %v allocs, want <= 6", n)
	}
}
