//go:build !race

package dace

const raceEnabled = false
