package chunk

import (
	"bytes"
	"math/rand/v2"
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
