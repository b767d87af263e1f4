package filter

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"
)

// genEvent is what the generated filters are evaluated on: a field of
// every constant kind, one of them behind an accessor too.
type genEvent struct {
	Name   string
	Price  float64
	Amount int64
	Active bool
	Inner  struct{ Depth int64 }
}

func (e genEvent) GetPrice() float64 { return e.Price }

// genExpr generates a valid tree of every node kind, operator and
// constant kind. Comparisons are mostly well typed, so that evaluation
// usually says true or false, and sometimes not, so that it also fails.
func genExpr(r *rand.Rand, depth int) *Expr {
	if depth > 0 {
		switch r.Intn(6) {
		case 0, 1, 2:
			terms := make([]*Expr, 1+r.Intn(4))
			for i := range terms {
				terms[i] = genExpr(r, depth-1)
			}
			if r.Intn(2) == 0 {
				return And(terms...)
			}
			return Or(terms...)
		case 3:
			return Not(genExpr(r, depth-1))
		}
	}
	ordered := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	stringly := []CmpOp{OpEq, OpNe, OpContains, OpHasPrefix, OpHasSuffix}
	switch r.Intn(12) {
	case 0:
		return True()
	case 1:
		return False()
	case 2, 3:
		return Path("Name").Cmp(stringly[r.Intn(len(stringly))], Str([]string{"", "T", "Telco", "co", "Acme"}[r.Intn(5)]))
	case 4, 5:
		return Path([]string{"Price", "GetPrice"}[r.Intn(2)]).Cmp(ordered[r.Intn(len(ordered))],
			Float([]float64{0, -0.5, 80, 100, 1e300, math.Inf(1)}[r.Intn(6)]))
	case 6, 7:
		return Path([]string{"Amount", "Inner.Depth"}[r.Intn(2)]).Cmp(ordered[r.Intn(len(ordered))],
			Int([]int64{0, -1, 10, math.MaxInt64, math.MinInt64}[r.Intn(5)]))
	case 8:
		return Path("Active").Cmp([]CmpOp{OpEq, OpNe}[r.Intn(2)], Bool(r.Intn(2) == 0))
	case 9:
		return Path("Price").Cmp(ordered[r.Intn(len(ordered))], Path("Amount")) // path against path
	case 10:
		return Path("Missing").Eq(Int(1)) // fails to evaluate
	default:
		return Path("Name").Lt(Int(3)) // ill typed: fails to evaluate
	}
}

func genEvents(r *rand.Rand, n int) []genEvent {
	evs := make([]genEvent, n)
	for i := range evs {
		evs[i] = genEvent{
			Name:   []string{"", "Telco", "Telco Mobiles", "Acme"}[r.Intn(4)],
			Price:  []float64{0, 80, 100, 250.5}[r.Intn(4)],
			Amount: []int64{-1, 0, 10, 1000}[r.Intn(4)],
			Active: r.Intn(2) == 0,
		}
		evs[i].Inner.Depth = int64(r.Intn(3))
	}
	return evs
}

// shuffled returns e with the terms of every And and Or in another order.
func shuffled(r *rand.Rand, e *Expr) *Expr {
	if len(e.Children) == 0 {
		return e
	}
	out := &Expr{Kind: e.Kind, Children: make([]*Expr, len(e.Children))}
	for i, c := range e.Children {
		out.Children[i] = shuffled(r, c)
	}
	if e.Kind != KindNot {
		r.Shuffle(len(out.Children), func(i, j int) { out.Children[i], out.Children[j] = out.Children[j], out.Children[i] })
	}
	return out
}

// TestMarshalProperties: over generated trees, what Unmarshal returns
// from a tree's bytes evaluates as the tree does, event by event, errors
// included; it marshals back to the same bytes; and a tree whose And/Or
// terms were shuffled still marshals canonically to the bytes of the
// original — the property the routing plane's plan keys rely on
// (Normalize).
func TestMarshalProperties(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	events := genEvents(r, 24)
	seen := map[ExprKind]bool{}
	for i := 0; i < 500; i++ {
		e := genExpr(r, 4)
		seen[e.Kind] = true
		data, err := Marshal(e)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if again, err := Marshal(back); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: marshals to % x, and after a round trip to % x (%v)", e, data, again, err)
		}
		for _, ev := range events {
			want, wantErr := Evaluate(e, ev)
			got, gotErr := Evaluate(back, ev)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s on %+v: %v, %v; after a round trip %v, %v", e, ev, want, wantErr, got, gotErr)
			}
		}
		canon, err := MarshalCanonical(e)
		if err != nil {
			t.Fatal(err)
		}
		other := shuffled(r, e)
		if again, err := MarshalCanonical(other); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("%s and %s, the same terms in another order, marshal canonically to\n% x and\n% x (%v)", e, other, canon, again, err)
		}
	}
	for k := KindConstTrue; k <= KindNot; k++ {
		if !seen[k] {
			t.Errorf("no generated tree had a root of kind %d", k)
		}
	}
}

func TestMarshalBounds(t *testing.T) {
	deep := True()
	for i := 1; i < maxDepth; i++ {
		deep = Not(deep)
	}
	data, err := Marshal(deep)
	if err != nil {
		t.Fatalf("a tree %d deep: %v", maxDepth, err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Fatalf("a tree %d deep: %v", maxDepth, err)
	}
	if err := Not(deep).Validate(); err == nil {
		t.Errorf("a tree %d deep is valid", maxDepth+1)
	}
	if _, err := Unmarshal(append([]byte{byte(KindNot)}, data...)); err == nil {
		t.Errorf("a tree %d deep unmarshals", maxDepth+1)
	}
	if _, err := Marshal(Path("A").Eq(Str(string(make([]byte, maxFilterBytes))))); err == nil {
		t.Errorf("a filter beyond %d bytes marshals", maxFilterBytes)
	}
}

func TestUnmarshalRejectsNonCanonical(t *testing.T) {
	valid, err := Marshal(And(Path("A").Eq(Bool(true)), Path("B").Lt(Int(3))))
	if err != nil {
		t.Fatal(err)
	}
	// valid is: and, 2, then leaf, ==, path 1 "A", bool 1, then leaf, <,
	// path 1 "B", int 3.
	const countAt, opAt, segsAt, boolAt = 1, 3, 5, 9
	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), valid[:at]...)
		out = append(out, b...)
		return append(out, valid[at+1:]...)
	}
	for name, data := range map[string][]byte{
		"empty":                 nil,
		"trailing byte":         append(append([]byte(nil), valid...), 0),
		"truncated":             valid[:len(valid)-1],
		"unknown node kind":     patch(0, 9),
		"no terms":              {byte(KindAnd), 0},
		"overlong count":        patch(countAt, 0x82, 0x00),
		"count beyond the tree": patch(countAt, 3),
		"unknown operator":      patch(opAt, 0),
		"empty path":            patch(segsAt, 0),
		"bool byte 2":           patch(boolAt, 2),
		"unknown operand tag":   patch(boolAt-1, 7),
	} {
		if e, err := Unmarshal(data); err == nil {
			t.Errorf("%s: accepted as %s", name, e)
		}
	}
}

// TestGobFilterOfTheParentIsRefused: testdata/parent-pr20/filter.gob is
// a canonical filter as the commit before this record marshaled it.
func TestGobFilterOfTheParentIsRefused(t *testing.T) {
	gobbed, err := os.ReadFile("testdata/parent-pr20/filter.gob")
	if err != nil {
		t.Fatal(err)
	}
	if e, err := Unmarshal(gobbed); err == nil {
		t.Fatalf("unmarshaled a gob stream as %s", e)
	}
}

// nodes counts a tree's nodes and the bytes of its strings.
func nodes(e *Expr) (n, held int) {
	n = 1
	if e.Cond != nil {
		for _, o := range []Operand{e.Cond.LHS, e.Cond.RHS} {
			held += len(o.Const.S)
			for _, seg := range o.Path {
				held += len(seg)
			}
		}
	}
	for _, c := range e.Children {
		cn, ch := nodes(c)
		n, held = n+cn, held+ch
	}
	return n, held
}

// FuzzFilterUnmarshal feeds the peer-facing decoder raw bytes: it must
// never panic, what it accepts is valid, no larger than what it was
// handed, and the one encoding of itself.
func FuzzFilterUnmarshal(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		data, err := Marshal(genExpr(r, 3))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	if gobbed, err := os.ReadFile("testdata/parent-pr20/filter.gob"); err == nil {
		f.Add(gobbed)
	}
	f.Add(bytes.Repeat([]byte{byte(KindNot)}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Unmarshal(data)
		if err != nil {
			return
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("accepted an invalid tree: %v", err)
		}
		if n, held := nodes(e); n+held > len(data) {
			t.Fatalf("decoded %d nodes and %d string bytes from %d input bytes", n, held, len(data))
		}
		again, err := Marshal(e)
		if err != nil {
			t.Fatalf("re-marshal of an accepted filter: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("an accepted record is not its tree's encoding:\n got % x\nwant % x", data, again)
		}
		if _, err := Unmarshal(again); err != nil {
			t.Fatalf("unmarshal of the re-marshaled filter: %v", err)
		}
	})
}
