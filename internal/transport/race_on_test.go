//go:build race

package transport

// raceEnabled reports whether the race detector is active (see
// race_off_test.go).
const raceEnabled = true
