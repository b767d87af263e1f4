package durable

import "govents/internal/seqset"

// Run is a run of consecutive offsets, both ends included.
type Run = seqset.Run

// cursorState is one consumer's position in a log of contiguous
// offsets: an inbox's durable subscription over its staged events, an
// outbox's subscriber over the published entries. The floor of acked
// is its frontier, every offset up to which is acknowledged (>= start);
// its runs are the offsets acknowledged above it. Its size follows the
// holes in what is acknowledged, not what was ever acknowledged.
type cursorState struct {
	start uint64 // offsets <= start are not owed
	acked seqset.Set
}

// newCursor returns a cursor owed everything above start.
func newCursor(start uint64) *cursorState {
	cs := &cursorState{start: start}
	cs.acked.Raise(start)
	return cs
}

// clip drops from the cursor every offset beyond last, the log's last
// offset, and reports whether it held any: offsets a crash took from
// the log, which the next append will assign again.
func (cs *cursorState) clip(last uint64) (clipped bool) {
	clipped = cs.start > last
	cs.start = min(cs.start, last)
	return cs.acked.Clip(last) || clipped
}

// appendAcked appends [u64 frontier][u32 n][u64 offset]...: the
// cursor's frontier and the n offsets it acknowledged above it,
// ascending.
func appendAcked(dst []byte, cs *cursorState) []byte {
	runs, n := cs.acked.Runs(), uint64(0)
	for _, r := range runs {
		n += r.Hi - r.Lo + 1
	}
	dst = appendUint32(appendUint64(dst, cs.acked.Floor()), uint32(n))
	for _, r := range runs {
		for off := r.Lo; ; off++ {
			dst = appendUint64(dst, off)
			if off == r.Hi {
				break
			}
		}
	}
	return dst
}

// takeAcked consumes what appendAcked appends into cs.
func takeAcked(cs *cursorState, src []byte) ([]byte, error) {
	frontier, src, err := takeUint64(src)
	if err != nil {
		return nil, err
	}
	cs.acked.Raise(frontier)
	return takeOffsets(cs, src)
}

// takeOffsets consumes [u32 n][u64 offset]... into cs.
func takeOffsets(cs *cursorState, src []byte) ([]byte, error) {
	n, src, err := takeUint32(src)
	for ; err == nil && n > 0; n-- {
		var off uint64
		if off, src, err = takeUint64(src); err == nil {
			cs.acked.Add(off, off, 0)
		}
	}
	return src, err
}
