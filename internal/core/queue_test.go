package core

import (
	"math/rand"
	"testing"

	"govents/internal/allocs"
)

// TestQueueKeepsItsArrayAcrossBursts: once a burst of 500 has grown the
// array, bursts of 100 to 500 items, each pushed whole and then popped,
// allocate nothing, window ends included. Both a lane's queue and a
// subscription's are this type.
func TestQueueKeepsItsArrayAcrossBursts(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var q queue[laneItem]
	burst := func(n int) {
		for range n {
			q.push(laneItem{})
		}
		for range n {
			q.pop()
		}
	}
	burst(500)
	grown := cap(q.items)
	rng := rand.New(rand.NewSource(1))
	if n := allocs.PerRun(100, func() { burst(100 + rng.Intn(401)) }); n != 0 {
		t.Errorf("a burst of 100-500 items allocates %.2f times after the first, want 0", n)
	}
	if c := cap(q.items); c != grown {
		t.Errorf("the array went from %d to %d items", grown, c)
	}
}

// TestQueueFallsBackAfterABurst: after one burst of 10⁵ items, followed
// by items one at a time, the array falls back within twice the recent
// high water (1), queueKeepMin at least, and the items keep their order
// throughout.
func TestQueueFallsBackAfterABurst(t *testing.T) {
	var q queue[submission[int]]
	next, want := 0, 0
	push := func() {
		q.push(submission[int]{o: next})
		next++
	}
	pop := func() {
		if got := q.pop().o; got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	for range 100_000 {
		push()
	}
	grown := cap(q.items)
	for q.len() > 0 {
		pop()
	}
	for range 3 * queueWindow {
		push()
		pop()
	}
	if c := cap(q.items); c > queueKeepMin {
		t.Errorf("after a burst that grew it to %d items and %d single items, the array holds %d, want <= %d",
			grown, 3*queueWindow, c, queueKeepMin)
	}
}
