package seqset

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// top is the largest number the model test names.
const top = 8

// model is the plain set a Set is checked against.
type model map[uint64]bool

// floor is the largest number up to which m holds everything.
func (m model) floor() uint64 {
	f := uint64(0)
	for m[f+1] {
		f++
	}
	return f
}

// runs are m's maximal runs above its floor.
func (m model) runs() []Run {
	var out []Run
	for n := m.floor() + 1; n <= top; n++ {
		switch {
		case !m[n]:
		case len(out) > 0 && out[len(out)-1].Hi == n-1:
			out[len(out)-1].Hi = n
		default:
			out = append(out, Run{n, n})
		}
	}
	return out
}

func (m model) clone() model {
	c := make(model, len(m))
	for n, in := range m {
		c[n] = in
	}
	return c
}

// step is one operation on a Set and on its model.
type step struct {
	op            byte // 'a'dd, 'r'aise or 'c'lip
	lo, hi, limit uint64
}

func (st step) String() string {
	switch st.op {
	case 'a':
		return fmt.Sprintf("Add(%d, %d, %d)", st.lo, st.hi, st.limit)
	case 'r':
		return fmt.Sprintf("Raise(%d)", st.lo)
	}
	return fmt.Sprintf("Clip(%d)", st.lo)
}

// apply runs st on s and m and checks that the two agree on the result
// and on everything after it.
func apply(t *testing.T, path []step, s *Set, m model, st step) {
	t.Helper()
	before := m.clone()
	switch st.op {
	case 'a':
		for n := st.lo; n <= st.hi; n++ {
			m[n] = true
		}
		grows, fresh := len(m.runs()) > len(before.runs()), len(m) > len(before)
		if st.limit > 0 && grows && len(m.runs()) > int(st.limit) {
			clear(m)
			for n := range before {
				m[n] = true
			}
			fresh = false
		}
		if got := s.Add(st.lo, st.hi, int(st.limit)); got != fresh {
			t.Fatalf("%v: returned %v, want %v", path, got, fresh)
		}
	case 'r':
		for n := uint64(0); n <= st.lo; n++ {
			m[n] = true
		}
		var want []Run
		for _, r := range before.runs() {
			if r.Lo <= m.floor() {
				want = append(want, r)
			}
		}
		if got := s.Raise(st.lo); !slices.Equal(got, want) {
			t.Fatalf("%v: absorbed %v, want %v", path, got, want)
		}
	case 'c':
		clipped := false
		for n := range before {
			if n > st.lo {
				clipped = true
				delete(m, n)
			}
		}
		if got := s.Clip(st.lo); got != clipped {
			t.Fatalf("%v: returned %v, want %v", path, got, clipped)
		}
	}
	for n := uint64(0); n <= top+2; n++ {
		if s.Has(n) != m[n] {
			t.Fatalf("%v: Has(%d) = %v, want %v", path, n, s.Has(n), m[n])
		}
	}
	if s.Floor() != m.floor() || !slices.Equal(s.Runs(), m.runs()) {
		t.Fatalf("%v: floor %d and runs %v, want %d and %v", path, s.Floor(), s.Runs(), m.floor(), m.runs())
	}
	prev := s.Floor()
	for _, r := range s.Runs() {
		if r.Lo < prev+2 || r.Hi < r.Lo {
			t.Fatalf("%v: runs %v above %d not ascending with gaps", path, s.Runs(), s.Floor())
		}
		prev = r.Hi
	}
}

// TestSetAgainstModel runs every sequence of up to six steps over the
// numbers 0 to 8 (every Add of a range, inverted ones included, with no
// cap and a cap of two runs; every Raise; every Clip) against a plain
// set. A state met again with no more steps left to take is not
// explored twice: what a Set does depends on its floor and runs alone.
func TestSetAgainstModel(t *testing.T) {
	var steps []step
	for lo := uint64(0); lo <= top; lo++ {
		for hi := uint64(0); hi <= top; hi++ {
			steps = append(steps, step{'a', lo, hi, 0}, step{'a', lo, hi, 2})
		}
		steps = append(steps, step{op: 'r', lo: lo}, step{op: 'c', lo: lo})
	}
	const depth = 6
	explored := map[string]int{} // state -> the most steps left it was explored with
	var walk func(path []step, s *Set, m model)
	walk = func(path []step, s *Set, m model) {
		left := depth - len(path)
		key := fmt.Sprint(s.floor, s.runs)
		if done, ok := explored[key]; ok && done >= left {
			return
		}
		explored[key] = left
		if left == 0 {
			return
		}
		for _, st := range steps {
			next, nm := &Set{floor: s.floor, runs: slices.Clone(s.runs)}, m.clone()
			p := append(slices.Clip(path), st)
			apply(t, p, next, nm, st)
			walk(p, next, nm)
		}
	}
	walk(nil, &Set{}, model{0: true})
	if len(explored) < 100 {
		t.Fatalf("explored %d states", len(explored))
	}
}

// TestSetAtTheTop: no arithmetic wraps at the largest number.
func TestSetAtTheTop(t *testing.T) {
	var s Set
	if !s.Add(math.MaxUint64, math.MaxUint64, 0) || !s.Has(math.MaxUint64) || s.Has(math.MaxUint64-1) {
		t.Fatalf("floor %d runs %v after adding the top", s.Floor(), s.Runs())
	}
	if s.Clip(math.MaxUint64) || len(s.Runs()) != 1 {
		t.Fatalf("Clip of the top took %v", s.Runs())
	}
	if got := s.Raise(math.MaxUint64 - 1); !slices.Equal(got, []Run{{math.MaxUint64, math.MaxUint64}}) || s.Floor() != math.MaxUint64 {
		t.Fatalf("Raise absorbed %v to floor %d", got, s.Floor())
	}
	if s.Add(0, math.MaxUint64, 0) || s.Raise(math.MaxUint64) != nil || !s.Has(0) {
		t.Fatal("a full set grew")
	}
}

// TestSetSteadyAllocs pins the link's usual paths: a number next in line,
// and one that extends the run above a hole, cost no allocation.
func TestSetSteadyAllocs(t *testing.T) {
	var s Set
	n := uint64(0)
	if a := testing.AllocsPerRun(1000, func() { n++; s.Raise(n) }); a != 0 {
		t.Errorf("Raise by one: %v allocations", a)
	}
	s.Add(n+2, n+2, 0)
	hi := n + 2
	if a := testing.AllocsPerRun(1000, func() { hi++; s.Add(hi, hi, 0) }); a != 0 {
		t.Errorf("Add above a hole: %v allocations", a)
	}
	if len(s.Runs()) != 1 {
		t.Errorf("runs %v above one hole", s.Runs())
	}
}

func TestRunListRoundTrip(t *testing.T) {
	runs := []Run{{12, 12}, {14, 40}, {1 << 40, 1<<40 + 5}}
	list := AppendRuns(nil, 10, runs)
	var got []Run
	collect := func(lo, hi uint64) { got = append(got, Run{lo, hi}) }
	EachRun(list, 10, collect)
	if !reflect.DeepEqual(got, runs) {
		t.Errorf("list = %v, want %v", got, runs)
	}
	// A malformed tail ends the walk; what came before it stands.
	got = nil
	EachRun(append(list[:4:4], 0x80), 10, collect)
	if !reflect.DeepEqual(got, runs[:2]) {
		t.Errorf("list with a torn tail = %v, want %v", got, runs[:2])
	}
	none := func(lo, hi uint64) { t.Errorf("malformed list named %d..%d", lo, hi) }
	EachRun([]byte{0, 0}, 10, none)                                                          // a run cannot start at the floor
	EachRun([]byte{1}, 10, none)                                                             // a start without a length
	EachRun([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0}, 10, none) // start past the top of the range
	EachRun([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 10, none) // end past it
}

// FuzzRuns feeds EachRun, which reads what peers send, raw bytes: it
// must never panic, the runs it reads must ascend above the floor
// without overlap, each costing at least the two bytes of its pair, and
// AppendRuns must write them back to a list that reads the same.
func FuzzRuns(f *testing.F) {
	f.Add(AppendRuns(nil, 10, []Run{{12, 12}, {14, 40}, {1 << 40, 1<<40 + 5}}), uint64(10))
	f.Add(AppendRuns(nil, 0, []Run{{70000, 70015}, {70017, 70017}}), uint64(0))
	f.Add([]byte{3, 0, 0, 0}, uint64(0))
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, uint64(math.MaxUint64-5))
	f.Fuzz(func(t *testing.T, list []byte, floor uint64) {
		var runs []Run
		end := floor
		EachRun(list, floor, func(lo, hi uint64) {
			if lo <= end || hi < lo {
				t.Fatalf("run %d..%d after %d in list %x", lo, hi, end, list)
			}
			runs, end = append(runs, Run{lo, hi}), hi
		})
		if 2*len(runs) > len(list) {
			t.Fatalf("%d runs from a %d-byte list", len(runs), len(list))
		}
		var again []Run
		EachRun(AppendRuns(nil, floor, runs), floor, func(lo, hi uint64) { again = append(again, Run{lo, hi}) })
		if !slices.Equal(again, runs) {
			t.Fatalf("runs %v re-read as %v", runs, again)
		}
	})
}
