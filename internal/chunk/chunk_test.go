package chunk

import (
	"bytes"
	"math/rand/v2"
	"runtime/debug"
	"testing"
)

// TestCopiesSurviveUntilReleased copies slices of random sizes, some
// past Size, releases them in random order while copying more, and
// checks that every copy not yet released still holds its bytes and
// has no room to append into the next.
func TestCopiesSurviveUntilReleased(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var s Store
	type kept struct {
		want, got []byte
		c         *Chunk
	}
	var live []kept
	for i := 0; i < 20000; i++ {
		if len(live) > 0 && rng.IntN(2) == 0 {
			k := rng.IntN(len(live))
			s.Release(live[k].c)
			live = append(live[:k], live[k+1:]...)
			continue
		}
		n := rng.IntN(700)
		if i%97 == 0 {
			n = Size + rng.IntN(100)
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(i + j)
		}
		got, c := s.Copy(b)
		if cap(got) != len(got) {
			t.Fatalf("a %d-byte copy has capacity %d", len(got), cap(got))
		}
		live = append(live, kept{b, got, c})
		for _, k := range live {
			if !bytes.Equal(k.got, k.want) {
				t.Fatalf("copy %d: a live copy was written over", i)
			}
		}
	}
}

// TestCopyReusesChunks pins the point of the store: copies that are
// released as fast as they come cost no allocation once a chunk exists.
func TestCopyReusesChunks(t *testing.T) {
	var s Store
	b := bytes.Repeat([]byte{1}, 1000)
	var held []*Chunk
	if n := testing.AllocsPerRun(1000, func() {
		_, c := s.Copy(b)
		held = append(held, c)
		if len(held) == 20 { // more than one chunk's worth in flight
			for _, c := range held {
				s.Release(c)
			}
			held = held[:0]
		}
	}); n != 0 {
		t.Errorf("%v allocations per copy, want 0", n)
	}
}

// TestBurstChunksAreReused: a store that a burst grew past its free list
// gives the chunks it has no room for to the pool, and the next burst,
// in it or in another store, allocates none of them again, unless the
// collector has run in between (here it does not).
func TestBurstChunksAreReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b := bytes.Repeat([]byte{1}, 1000)
	const burst = 8 * 4 * maxFree // four free lists' worth of chunks
	burstOf := func(s *Store) func() {
		return func() {
			held := make([]*Chunk, 0, burst)
			for range burst {
				_, c := s.Copy(b)
				held = append(held, c)
			}
			for _, c := range held {
				s.Release(c)
			}
		}
	}
	var first, second Store
	burstOf(&first)() // fills the pool
	if n := testing.AllocsPerRun(10, burstOf(&second)); n > 1 {
		t.Errorf("a burst in a second store allocates %v times, want only its list of copies (1)", n)
	}
}

// TestEmptyCopiesTakeNoChunk checks that nothing is kept for an empty
// slice, and that nil stays nil.
func TestEmptyCopiesTakeNoChunk(t *testing.T) {
	var s Store
	if got, c := s.Copy(nil); got != nil || c != nil {
		t.Errorf("Copy(nil) = %v, %p", got, c)
	}
	if got, c := s.Copy([]byte{}); got == nil || len(got) != 0 || c != nil {
		t.Errorf("Copy([]byte{}) = %v, %p", got, c)
	}
	s.Release(nil)
}
