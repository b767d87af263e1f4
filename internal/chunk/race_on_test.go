//go:build race

package chunk

// raceEnabled disables allocation-count assertions: under the race
// detector sync.Pool drops what it is given at random.
const raceEnabled = true
