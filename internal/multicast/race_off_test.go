//go:build !race

package multicast

const raceEnabled = false
