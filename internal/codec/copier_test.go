package codec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"govents/internal/obvent"
)

// The copier menagerie: every supported reference shape, plus the
// layouts that must be rejected to the gob fallback.

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
	private *leaf // unexported: gob never moves it; prototype copy is zero
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
}

type ptrKeyEvent struct {
	obvent.Base
	M map[*leaf]int
}

type arrPtrKeyEvent struct {
	obvent.Base
	M map[[2]*leaf]string
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
	// Slices: nil, or populated (gob collapses empty-to-nil at field
	// level, so the prototype never carries empty non-nil fields; random
	// lengths start at 1).
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
		// gob rejects nil pointers inside slices/maps (only field-level
		// nils are omitted), so container elements are always non-nil —
		// the same invariant every real payload obeys.
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
	// Pointer arrays must be fully populated: gob rejects nil elements
	// even in an otherwise-zero array, so no published value can carry
	// one.
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

// TestCopierMatchesGobRoundTrip is the randomized equivalence fuzz: for
// a pointer-bearing class, a compiled-copier clone must be
// reflect.DeepEqual to a gob-per-clone decode of the same envelope, for
// every generated value shape (nil pointers, nil/populated slices and
// maps, nested reference kinds, multi-level pointers).
func TestCopierMatchesGobRoundTrip(t *testing.T) {
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
		src, err := c.Source(env)
		if err != nil {
			t.Fatal(err)
		}
		if src.mode != modeCopier {
			t.Fatalf("ptrQuote resolved to mode %d, want compiled copier", src.mode)
		}
		got, err := src.Clone()
		if err != nil {
			t.Fatal(err)
		}
		// The oracle: the exact decode every clone used to perform.
		oracle := *src
		oracle.mode = modeGob
		want, err := oracle.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d:\ncopier: %+v\ngob:    %+v", i, got, want)
		}
	}
}

// TestCopierCloneIndependence proves obvent local uniqueness (§2.1.2)
// on the copier path: clones share no mutable state with each other or
// with the prototype.
func TestCopierCloneIndependence(t *testing.T) {
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
		t.Fatalf("mutating clone a corrupted the prototype: %+v", qc)
	}
}

// TestCloneLastHandsOutThePrototype: the last clone of a copier class
// is the decoded prototype itself, so it is as independent of the
// earlier clones as they are of each other, it costs no copy, and the
// source is left able to decode again.
func TestCloneLastHandsOutThePrototype(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(ptrQuote{})
	c := New(reg)
	in := ptrQuote{Company: "Acme", Detail: &leaf{Name: "d"}, Tags: []string{"a", "b"}, Meta: map[string]int{"k": 1}}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	decodes := func() uint64 { st := c.WireStats(); return st.Decodes + st.GobDecodes }
	for _, n := range []int{1, 2, 5} {
		src, err := c.Source(env)
		if err != nil {
			t.Fatal(err)
		}
		before := decodes()
		clones := make([]ptrQuote, n)
		for i := range clones {
			clone := src.Clone
			if i == n-1 {
				clone = src.CloneLast
			}
			o, err := clone()
			if err != nil {
				t.Fatal(err)
			}
			clones[i] = o.(ptrQuote)
		}
		if got := decodes() - before; got != 1 {
			t.Errorf("%d clones took %d decodes, want 1", n, got)
		}
		if src.proto.IsValid() {
			t.Errorf("%d clones: the source still holds the prototype it handed out", n)
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
		again, err := src.Clone() // decodes anew: the mutations above are not in it
		if err != nil {
			t.Fatal(err)
		}
		if q := again.(ptrQuote); q.Detail.Name != "d" || q.Tags[0] != "a" || q.Meta["k"] != 1 {
			t.Errorf("%d clones: a clone after CloneLast carries a subscriber's writes: %+v", n, q)
		}
	}
}

// TestCopierRejectsUnsupportedLayouts pins the compile-time fallback
// decisions: recursion, interfaces, chans, and pointer-bearing map keys
// all reject to gob, once, and the rejection is cached.
func TestCopierRejectsUnsupportedLayouts(t *testing.T) {
	reg := obvent.NewRegistry()
	c := New(reg)
	for _, tc := range []struct {
		name string
		typ  reflect.Type
	}{
		{"recursive", reflect.TypeOf(recNode{})},
		{"interface-field", reflect.TypeOf(ifaceEvent{})},
		{"chan-field", reflect.TypeOf(chanEvent{})},
		{"pointer-map-key", reflect.TypeOf(ptrKeyEvent{})},
		{"array-ptr-map-key", reflect.TypeOf(arrPtrKeyEvent{})},
	} {
		if fn := c.copierFor(tc.typ); fn != nil {
			t.Errorf("%s: compiled a copier, want gob fallback", tc.name)
		}
		if fn := c.copierFor(tc.typ); fn != nil { // cached decision
			t.Errorf("%s: second lookup compiled a copier", tc.name)
		}
	}
	st := c.CopierStats()
	if st.Rejects != 5 || st.Compiles != 0 {
		t.Errorf("CopierStats = %+v, want 5 rejects / 0 compiles (cached rejections count once)", st)
	}
}

// TestCopierRejectedClassStillClones proves fail-open: a rejected
// layout that gob can nonetheless move (a recursive list) keeps working
// through the per-clone decode fallback.
func TestCopierRejectedClassStillClones(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(recNode{})
	c := New(reg)
	in := recNode{V: 1, Next: &recNode{V: 2, Next: &recNode{V: 3}}}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Source(env)
	if err != nil {
		t.Fatal(err)
	}
	if src.mode != modeGob {
		t.Fatalf("recursive class resolved to mode %d, want gob fallback", src.mode)
	}
	o, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	got := o.(recNode)
	if got.V != 1 || got.Next == nil || got.Next.V != 2 || got.Next.Next == nil || got.Next.Next.V != 3 {
		t.Fatalf("gob-fallback clone mangled the list: %+v", got)
	}
}

// TestCopierStatsCount pins the compile counters: one compile per
// class, decided once.
func TestCopierStatsCount(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(ptrQuote{})
	c := New(reg)
	in := ptrQuote{Company: "x", Detail: &leaf{}}
	in.Arr = [3]*leaf{{}, {}, {}} // gob rejects nil pointer-array elements
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Source(env); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CopierStats()
	if st.Compiles != 1 || st.Rejects != 0 {
		t.Errorf("CopierStats = %+v, want exactly 1 compile", st)
	}
}

// BenchmarkClonePointerBearing is the tentpole's clone benchmark: a
// pointer-bearing class cloned through the compiled copier vs the
// gob-decode-per-clone baseline it replaces (acceptance: >= 10x).
func BenchmarkClonePointerBearing(b *testing.B) {
	reg := obvent.NewRegistry()
	reg.MustRegister(ptrQuote{})
	c := New(reg)
	in := ptrQuote{
		Company: "Telco Mobiles",
		Detail:  &leaf{Name: "spot", Score: 80},
		Tags:    []string{"a", "b", "c"},
		Meta:    map[string]int{"k1": 1, "k2": 2},
	}
	in.Nest.Inner = &leaf{Name: "n"}
	in.Arr = [3]*leaf{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	env, err := c.Encode(in)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		force cloneMode
	}{{"gob", modeGob}, {"copier", modeCopier}} {
		b.Run(mode.name, func(b *testing.B) {
			src, err := c.Source(env)
			if err != nil {
				b.Fatal(err)
			}
			if src.mode != modeCopier {
				b.Fatalf("ptrQuote resolved to mode %d, want copier", src.mode)
			}
			src.mode = mode.force
			if _, err := src.Clone(); err != nil { // warm the prototype
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Clone(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gobCounter is big.Int's pattern: custom gob marshaling that rebuilds
// UNEXPORTED reference state at decode time — invisible to a
// layout-driven copier, whose shallow struct copy would alias it across
// clones. Such types must reject to the gob fallback.
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
	Detail  *leaf // pointer-bearing, so the class is not flat
}

// TestCopierRejectsCustomGobMarshalers pins the custom-marshaling
// rejection: a class reaching a GobEncoder/GobDecoder type must take
// the per-clone gob decode (which honors the custom codec), and clones
// must not share the unexported state GobDecode rebuilds.
func TestCopierRejectsCustomGobMarshalers(t *testing.T) {
	reg := obvent.NewRegistry()
	reg.MustRegister(customGobEvent{})
	c := New(reg)
	if fn := c.copierFor(reflect.TypeOf(customGobEvent{})); fn != nil {
		t.Fatal("compiled a copier over a custom gob marshaler, want gob fallback")
	}
	in := customGobEvent{Name: "x", Counter: gobCounter{vals: []int{1, 2, 3}}, Detail: &leaf{Name: "d"}}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Source(env)
	if err != nil {
		t.Fatal(err)
	}
	if src.mode != modeGob {
		t.Fatalf("mode = %d, want gob fallback", src.mode)
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
	if len(ga.Counter.vals) != 3 || len(gb.Counter.vals) != 3 {
		t.Fatalf("custom decode lost state: %+v / %+v", ga.Counter, gb.Counter)
	}
	ga.Counter.vals[0] = -1
	if gb.Counter.vals[0] != 1 {
		t.Fatal("clones share GobDecode-rebuilt unexported state")
	}

	// Flat custom marshalers stay on the value-copy fastpath: with no
	// reference kinds in the layout, a value copy is complete however
	// the value was decoded.
	st := c.CopierStats()
	if st.Rejects != 1 {
		t.Errorf("CopierStats.Rejects = %d, want 1", st.Rejects)
	}
}
