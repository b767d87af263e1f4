package multicast

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReleaseListDeliversOnceInOrder: goroutines that post to one list
// and run it when told get every item delivered exactly once, each one's
// items in the order it posted them, and never two Deliver calls at the
// same time. Each lends one buffer, which it writes over as soon as its
// post and run return: what another runner delivers later is a copy.
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
			buf := make([]byte, 3)
			for n := range each {
				buf[0], buf[1], buf[2] = byte(a), byte(n>>8), byte(n)
				if r.post(queuedMsg{origin: "o", payload: buf}) {
					r.run()
				}
				buf[0], buf[1], buf[2] = 0xFF, 0xFF, 0xFF
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
// holds the rest of the batch and every later post until resume, which
// delivers them in order, from copies of what their posters lent; close
// delivers a paused backlog and drops what is posted after it.
func TestReleaseListPauseHoldsTheRest(t *testing.T) {
	var got []int
	var r *releaseList
	r = newReleaseList(func(_ string, p []byte) {
		got = append(got, int(p[0]))
		if p[0] == 1 {
			r.pause()
		}
	})
	lent := make([]byte, 1)
	post := func(is ...int) {
		msgs := make([]queuedMsg, len(is))
		for k, i := range is {
			msgs[k] = queuedMsg{origin: "o", payload: lent[k : k+1]}
			lent[k] = byte(i)
		}
		if r.post(msgs...) {
			r.run()
		}
		clear(lent) // the poster's call is over
	}
	add := func(i int) { post(i) }
	want := func(w ...int) {
		t.Helper()
		if !slices.Equal(got, w) {
			t.Fatalf("delivered %v, want %v", got, w)
		}
	}
	lent = make([]byte, 3)
	post(0, 1, 2)
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
