//go:build !race

package codec

const raceEnabled = false
