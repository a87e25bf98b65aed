// Package rng builds the random source every stochastic model draws from:
// the fading channel, random-waypoint mobility, Poisson traffic, the HARQ
// error draw, the control-channel impairment and scenario placement.
//
// A source is math/rand/v2's PCG, 16 bytes of state, so a world with
// thousands of UEs can give each model its own without the state dwarfing
// the model (math/rand's source is 607 words, 4.9 KB).
package rng

import "math/rand/v2"

// New returns a generator determined by seed. The two PCG words are the
// first two SplitMix64 outputs from seed, so adjacent seeds start far apart
// in the generator's state space.
func New(seed int64) *rand.Rand {
	s := uint64(seed)
	a := splitMix64(&s)
	b := splitMix64(&s)
	return rand.New(rand.NewPCG(a, b))
}

// splitMix64 advances *s and returns its next SplitMix64 output.
func splitMix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
