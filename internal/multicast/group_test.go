package multicast

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReleaseListDeliversOnceInOrder: goroutines that add to one list
// and run it at once get every item delivered exactly once, each one's
// items in the order it added them, and never two Deliver calls at the
// same time.
func TestReleaseListDeliversOnceInOrder(t *testing.T) {
	const adders, each = 4, 500
	var inside atomic.Int32
	next := make([]int, adders) // per adder, the item due next; Deliver alone touches it
	r := newReleaseList(func(_ string, p []byte) {
		if inside.Add(1) != 1 {
			t.Error("two Deliver calls at once")
		}
		a, n := int(p[0]), int(p[1])<<8|int(p[2])
		if n != next[a] {
			t.Errorf("adder %d: delivered item %d, want %d", a, n, next[a])
		}
		next[a] = n + 1
		inside.Add(-1)
	})
	var wg sync.WaitGroup
	for a := range adders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range each {
				r.add("o", []byte{byte(a), byte(n >> 8), byte(n)})
				r.run()
			}
		}()
	}
	wg.Wait()
	for a, n := range next {
		if n != each {
			t.Errorf("adder %d: %d of %d delivered", a, n, each)
		}
	}
}

// TestReleaseListPauseHoldsTheRest: a pause taken inside a delivery
// holds the rest of the batch and every later add until resume, which
// delivers them in order; close delivers a paused backlog and drops
// what is added after it.
func TestReleaseListPauseHoldsTheRest(t *testing.T) {
	var got []int
	var r *releaseList
	r = newReleaseList(func(_ string, p []byte) {
		got = append(got, int(p[0]))
		if p[0] == 1 {
			r.pause()
		}
	})
	add := func(i int) {
		r.add("o", []byte{byte(i)})
		r.run()
	}
	want := func(w ...int) {
		t.Helper()
		if !slices.Equal(got, w) {
			t.Fatalf("delivered %v, want %v", got, w)
		}
	}
	r.add("o", []byte{0})
	r.add("o", []byte{1})
	r.add("o", []byte{2})
	r.run()
	want(0, 1)
	add(3)
	want(0, 1)
	r.resume()
	want(0, 1, 2, 3)
	r.pause()
	add(4)
	want(0, 1, 2, 3)
	r.close()
	want(0, 1, 2, 3, 4)
	add(5)
	want(0, 1, 2, 3, 4)
}
