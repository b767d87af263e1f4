//go:build race

package dace

// raceEnabled disables allocation-count assertions: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
