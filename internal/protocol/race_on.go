//go:build race

package protocol

// raceEnabled reports whether the race detector is active: race builds
// retire released envelopes instead of recycling them (see
// Message.Release).
const raceEnabled = true
