//go:build race

package agent

// raceEnabled reports whether the race detector is active (see
// race_off_test.go).
const raceEnabled = true
