//go:build !race

package protocol

// raceEnabled reports whether the race detector is active (see race_on.go).
const raceEnabled = false
