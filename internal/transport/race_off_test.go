//go:build !race

package transport

// raceEnabled reports whether the race detector is active. The allocation
// gate skips under -race: the detector randomizes sync.Pool caching to
// expose races, which makes alloc counts meaningless there.
const raceEnabled = false
