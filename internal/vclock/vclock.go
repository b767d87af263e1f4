// Package vclock implements vector clocks, the substrate for the
// causally ordered obvent delivery of the paper's §3.1.2: causally
// ordered obvents "are delivered in the order they are published, as
// determined by the happens-before relationship [Lam78]".
package vclock

import (
	"fmt"
	"sort"
	"strings"

	"govents/internal/rec"
)

// VC is a vector clock: a map from process identifier to the number of
// causally relevant events observed from that process. The nil map is a
// valid, empty clock.
type VC map[string]uint64

// New returns an empty vector clock.
func New() VC { return make(VC) }

// Copy returns an independent copy of the clock.
func (v VC) Copy() VC {
	out := make(VC, len(v))
	for k, n := range v {
		out[k] = n
	}
	return out
}

// Tick increments the component of process id and returns the clock for
// chaining. Tick mutates the receiver; the receiver must be non-nil.
func (v VC) Tick(id string) VC {
	v[id]++
	return v
}

// Get returns the component for process id (zero if absent).
func (v VC) Get(id string) uint64 { return v[id] }

// Merge sets the receiver to the component-wise maximum of itself and
// other. The receiver must be non-nil.
func (v VC) Merge(other VC) VC {
	for k, n := range other {
		if n > v[k] {
			v[k] = n
		}
	}
	return v
}

// Merged returns a new clock that is the component-wise maximum of a and
// b without mutating either.
func Merged(a, b VC) VC {
	out := a.Copy()
	out.Merge(b)
	return out
}

// LessEqual reports whether v ≤ other component-wise (v happened before
// or equals other).
func (v VC) LessEqual(other VC) bool {
	for k, n := range v {
		if n > other[k] {
			return false
		}
	}
	return true
}

// Before reports whether v happened strictly before other: v ≤ other and
// v ≠ other.
func (v VC) Before(other VC) bool {
	return v.LessEqual(other) && !other.LessEqual(v)
}

// Concurrent reports whether neither clock happened before the other.
func (v VC) Concurrent(other VC) bool {
	return !v.LessEqual(other) && !other.LessEqual(v)
}

// Equal reports component-wise equality (missing components count as 0).
func (v VC) Equal(other VC) bool {
	return v.LessEqual(other) && other.LessEqual(v)
}

// String renders the clock deterministically, e.g. "{a:1 b:3}".
func (v VC) String() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		if v[k] != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, v[k])
	}
	b.WriteByte('}')
	return b.String()
}

// MaxEntries caps the clocks the wire records carry, on encode and
// decode alike.
const MaxEntries = 0xFFFF

// Read reads a clock as the wire records carry it (the envelope's, the
// multicast record's): a uvarint count of 1 to MaxEntries, then per entry a
// length-prefixed key and a uvarint value. ascending is the multicast
// record's rule, keys in strictly ascending order (one encoding per
// clock); without it a key may just not repeat. Every entry takes at
// least two bytes (an empty key's length and a value), which bounds the
// map's size by the input's before it is allocated.
func Read(r *rec.Reader, ascending bool) VC {
	n := r.Count("vector clock entries", 1, 2)
	if n > MaxEntries {
		r.Fail("vector clock of %d entries", n)
	}
	if r.Err != nil {
		return nil
	}
	vc := make(VC, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := string(r.Span("vector clock key", 0, rec.MaxString))
		v := r.Uvarint()
		if r.Err != nil {
			return nil
		}
		if _, dup := vc[k]; dup || (ascending && i > 0 && k <= prev) {
			r.Fail("duplicate or out-of-order vector clock key %q", k)
			return nil
		}
		vc[k], prev = v, k
	}
	return vc
}
