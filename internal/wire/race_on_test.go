//go:build race

package wire

// raceEnabled disables allocation-count assertions: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
