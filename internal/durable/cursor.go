package durable

import (
	"maps"
	"slices"
)

// cursorState is one consumer's position in a log of contiguous
// offsets: an inbox's durable subscription over its staged events, an
// outbox's subscriber over the published entries. Its size follows what
// is acknowledged out of order, not what was ever acknowledged.
type cursorState struct {
	start    uint64 // offsets <= start are not owed
	frontier uint64 // offsets <= frontier are acknowledged (>= start)
	sparse   map[uint64]bool
}

// newCursor returns a cursor owed everything above start.
func newCursor(start uint64) *cursorState {
	return &cursorState{start: start, frontier: start, sparse: make(map[uint64]bool)}
}

// record folds one acknowledged offset into the cursor, advancing the
// contiguous frontier through any sparse backlog it unlocks.
func (cs *cursorState) record(off uint64) {
	if off <= cs.frontier || cs.sparse[off] {
		return
	}
	if off == cs.frontier+1 {
		cs.frontier++
		for cs.sparse[cs.frontier+1] {
			delete(cs.sparse, cs.frontier+1)
			cs.frontier++
		}
		return
	}
	cs.sparse[off] = true
}

// recordRun folds the acknowledged offsets lo through hi into the
// cursor and reports whether any of them was new to it.
func (cs *cursorState) recordRun(lo, hi uint64) (fresh bool) {
	for off := max(lo, cs.frontier+1); off <= hi; off++ {
		if !cs.sparse[off] {
			fresh = true
			cs.record(off)
		}
	}
	return fresh
}

// ackedAt reports whether the cursor has acknowledged the offset.
func (cs *cursorState) ackedAt(off uint64) bool {
	return off <= cs.frontier || cs.sparse[off]
}

// clip drops from the cursor every offset beyond last, the log's last
// offset, and reports whether it held any: offsets a crash took from
// the log, which the next append will assign again.
func (cs *cursorState) clip(last uint64) (clipped bool) {
	if cs.start > last || cs.frontier > last {
		clipped = true
		cs.start, cs.frontier = min(cs.start, last), min(cs.frontier, last)
	}
	for off := range cs.sparse {
		if off > last {
			clipped = true
			delete(cs.sparse, off)
		}
	}
	return clipped
}

// appendOffsets appends [u32 n][u64 offset]...: the offsets the cursor
// acknowledged above its frontier, ascending.
func appendOffsets(dst []byte, cs *cursorState) []byte {
	above := slices.Sorted(maps.Keys(cs.sparse))
	dst = appendUint32(dst, uint32(len(above)))
	for _, off := range above {
		dst = appendUint64(dst, off)
	}
	return dst
}

// takeOffsets consumes what appendOffsets appends into cs.
func takeOffsets(cs *cursorState, src []byte) ([]byte, error) {
	n, src, err := takeUint32(src)
	for ; err == nil && n > 0; n-- {
		var off uint64
		if off, src, err = takeUint64(src); err == nil {
			cs.record(off)
		}
	}
	return src, err
}
