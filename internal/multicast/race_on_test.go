//go:build race

package multicast

// raceEnabled disables allocation-count assertions: the race detector's
// instrumentation allocates on its own, and its sync.Pool drops a share
// of what it is given.
const raceEnabled = true
