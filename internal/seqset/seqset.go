// Package seqset is the one answer the links and the durable cursors
// give to "which sequence numbers are done?": a floor, every number up
// to which is done, and the runs done above it. Its size follows the
// holes in what it holds. AppendRuns and EachRun are its list codec.
package seqset

import (
	"encoding/binary"
	"slices"
)

// Run is a run of consecutive numbers, both ends included.
type Run struct{ Lo, Hi uint64 }

// Set is a floor and the runs above it: ascending, disjoint, and each at
// least one missing number apart from the next and from the floor. The
// zero Set holds 0 alone.
type Set struct {
	floor uint64
	runs  []Run
}

// Floor returns the number up to which the set holds everything.
func (s *Set) Floor() uint64 { return s.floor }

// Runs returns the runs above the floor, which are the set's: read them
// until the set next changes.
func (s *Set) Runs() []Run { return s.runs }

// reaching returns the index of the first run that ends at or above n.
func (s *Set) reaching(n uint64) int {
	i, _ := slices.BinarySearchFunc(s.runs, n, func(r Run, n uint64) int {
		if r.Hi < n {
			return -1
		}
		return 1
	})
	return i
}

// Has reports whether n is in the set.
func (s *Set) Has(n uint64) bool {
	i := s.reaching(n)
	return n <= s.floor || i < len(s.runs) && s.runs[i].Lo <= n
}

// Add puts lo through hi (none when lo > hi) in the set, the floor
// moving up over them when they reach it, and reports whether any was
// new. With limit above 0 it adds nothing, and reports false, when that
// would open a run beyond the limit's count.
func (s *Set) Add(lo, hi uint64, limit int) bool {
	if hi <= s.floor || lo > hi {
		return false
	}
	lo = max(lo, s.floor+1)
	i := s.reaching(lo - 1) // runs[i:j] overlap lo..hi or touch it
	j := i
	for j < len(s.runs) && s.runs[j].Lo-1 <= hi {
		j++
	}
	switch {
	case j == i+1 && s.runs[i].Lo <= lo && hi <= s.runs[i].Hi:
		return false
	case j > i:
		s.runs[i] = Run{min(lo, s.runs[i].Lo), max(hi, s.runs[j-1].Hi)}
		s.runs = slices.Delete(s.runs, i+1, j)
		if s.runs[0].Lo-1 == s.floor {
			s.Raise(s.runs[0].Hi)
		}
	case lo-1 == s.floor:
		s.floor = hi
	case limit > 0 && len(s.runs) >= limit:
		return false
	default:
		s.runs = slices.Insert(s.runs, i, Run{lo, hi})
	}
	return true
}

// Raise puts every number up to floor in the set, then every run the
// floor reaches, and returns those runs for a caller that keeps
// something per number. They lie past the end of the set's own runs,
// until the set next grows.
func (s *Set) Raise(floor uint64) []Run {
	if floor <= s.floor {
		return nil
	}
	s.floor = floor
	n := 0
	for ; n < len(s.runs) && s.runs[n].Lo-1 <= s.floor; n++ {
		s.floor = max(s.floor, s.runs[n].Hi)
	}
	// Rotate the runs taken behind the others.
	slices.Reverse(s.runs[:n])
	slices.Reverse(s.runs[n:])
	slices.Reverse(s.runs)
	k := len(s.runs) - n
	s.runs = s.runs[:k]
	return s.runs[k : k+n]
}

// Clip takes every number above last out of the set and reports whether
// it held any.
func (s *Set) Clip(last uint64) bool {
	clipped := s.floor > last
	s.floor = min(s.floor, last)
	i := s.reaching(last)
	if i < len(s.runs) && s.runs[i].Lo <= last {
		clipped, s.runs[i].Hi = s.runs[i].Hi > last, last
		i++
	}
	clipped = clipped || i < len(s.runs)
	s.runs = s.runs[:i]
	return clipped
}

// AppendRuns appends the runs rs, which ascend above floor with gaps
// between them, as pairs of uvarints: the distance from the end of the
// run before (from floor, for the first) to the run's start, and the
// run's length less one.
func AppendRuns(dst []byte, floor uint64, rs []Run) []byte {
	for _, r := range rs {
		dst = binary.AppendUvarint(dst, r.Lo-floor)
		dst = binary.AppendUvarint(dst, r.Hi-r.Lo)
		floor = r.Hi
	}
	return dst
}

// EachRun calls fn for every run of a list AppendRuns wrote above floor,
// stopping quietly at the first malformed pair: a list that names less
// than was sent only delays what it would have settled.
func EachRun(list []byte, floor uint64, fn func(lo, hi uint64)) {
	for len(list) > 0 {
		gap, n := binary.Uvarint(list)
		if n <= 0 || gap == 0 || floor+gap < floor {
			return
		}
		span, k := binary.Uvarint(list[n:])
		lo := floor + gap
		if k <= 0 || lo+span < lo {
			return
		}
		fn(lo, lo+span)
		floor, list = lo+span, list[n+k:]
	}
}
