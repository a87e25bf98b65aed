//go:build !race

package scenario

// raceEnabled reports whether the race detector is active. The 4096-eNB
// scale gate skips under -race: instrumenting a 100k-UE run multiplies
// its cost far past a CI-sized job without adding signal (the smaller
// scenarios already run under the race detector).
const raceEnabled = false
