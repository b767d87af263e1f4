//go:build !race

package govents_test

const raceEnabled = false
