// Package allocs counts heap allocations per call exactly, for tests
// that pin an allocation budget: testing.AllocsPerRun divides in
// integers, so it reads a regression of a fraction of an allocation
// per call as no change.
package allocs

import "runtime"

// PerRun calls f once to warm it, then runs times, and returns the
// mean number of heap allocations per call as a float, with GOMAXPROCS
// set to 1 like testing.AllocsPerRun. It measures three times and
// returns the least: a stray allocation by the runtime or another
// goroutine (a new thread's random-number state, say) only adds.
func PerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := -1.0
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		if n := float64(after.Mallocs-before.Mallocs) / float64(runs); least < 0 || n < least {
			least = n
		}
	}
	return least
}
