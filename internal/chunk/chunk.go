// Package chunk keeps copies of short-lived byte slices in recycled
// chunks, so that whatever keeps bytes past the call that lent them
// (a link's log, an outbox, a dispatch lane, a release list, a frame held
// for a hole below it) costs no allocation of its own once warm.
//
// A Store copies each slice into its current chunk, behind the ones
// copied before, and counts the copies a chunk holds. Releasing the
// last of them recycles the chunk: the current one is emptied in place,
// any other joins a short free list, and the rest go to a pool that
// every store takes from before it allocates, and that the collector
// empties: what a burst made one store allocate serves the next burst,
// and is not kept for ever. Copies are released in any order. A Store
// is not safe for concurrent use: its owner's lock guards it, and a
// copy may be read outside that lock only by a holder that has not
// released it yet (Hold).
package chunk

import "sync"

// Size is a chunk's capacity: many small copies share one. A slice
// longer than Size gets a chunk of its own, which is not recycled.
const Size = 8 << 10

// maxFree bounds the empty chunks a store keeps for reuse.
const maxFree = 16

// spare holds the empty chunks of Size that free lists had no room for.
var spare sync.Pool

// A Chunk is a buffer the copies of a store share, and how many of them
// are not released.
type Chunk struct {
	buf  []byte
	refs int
}

// Store is a set of chunks. The zero value is ready to use.
type Store struct {
	cur  *Chunk
	free []*Chunk
}

// Copy copies b into the store and returns the copy, capacity clipped,
// and the chunk that holds it, which the caller releases when done with
// the copy. An empty b is copied into no chunk: the chunk is nil.
func (s *Store) Copy(b []byte) ([]byte, *Chunk) {
	if len(b) == 0 {
		if b == nil {
			return nil, nil
		}
		return []byte{}, nil
	}
	c := s.cur
	switch {
	case len(b) > Size:
		c = &Chunk{buf: make([]byte, 0, len(b))}
	case c == nil || cap(c.buf)-len(c.buf) < len(b):
		// The current chunk holds copies not yet released, or it would
		// have been emptied: it is recycled when the last one goes.
		c = s.fresh()
		s.cur = c
	}
	start := len(c.buf)
	c.buf = append(c.buf, b...)
	c.refs++
	return c.buf[start:len(c.buf):len(c.buf)], c
}

// fresh returns an empty chunk of Size.
func (s *Store) fresh() *Chunk {
	if k := len(s.free) - 1; k >= 0 {
		c := s.free[k]
		s.free[k], s.free = nil, s.free[:k]
		return c
	}
	if c, ok := spare.Get().(*Chunk); ok {
		return c
	}
	return &Chunk{buf: make([]byte, 0, Size)}
}

// Hold counts one more reader of a copy in c, which releases it too:
// one that reads the copy outside the owner's lock while the copy's
// holder may release it.
func (s *Store) Hold(c *Chunk) {
	if c != nil {
		c.refs++
	}
}

// Release gives back one copy in c (nil is no copy). The bytes of a
// chunk whose copies are all released are written over by later copies.
func (s *Store) Release(c *Chunk) {
	if c == nil {
		return
	}
	if c.refs--; c.refs > 0 {
		return
	}
	c.buf = c.buf[:0]
	switch {
	case c == s.cur || cap(c.buf) != Size: // in use again, or never recycled
	case len(s.free) < maxFree:
		s.free = append(s.free, c)
	default:
		spare.Put(c)
	}
}
