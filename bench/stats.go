package main

import (
	"math"
	"slices"
)

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice. vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), which is the
// spread rule the acceptance check applies. vs is sorted in place; fewer
// than two values have no spread.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	slices.Sort(vs)
	at := func(i int) float64 { // i-th of 4 cut points over n+1 intervals
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return vs[j-1] + d*(vs[j]-vs[j-1])
	}
	return at(1), at(3)
}

// tailPercentile picks the highest of p99.9 / p99 / p95 / p90 that still
// has at least ten samples beyond it in a sample of n, falling back to the
// median when even p90 does not (n < 100).
func tailPercentile(n int) float64 {
	for _, c := range []struct {
		p            float64
		beyondPerMil int // share of the sample beyond p, in thousandths
	}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}} {
		if n*c.beyondPerMil >= 10*1000 {
			return c.p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank) of an ascending
// sorted sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencies summarizes per-operation times in nanoseconds.
type latencies struct {
	p50us, p99us float64
	n            int
}

// summarize sorts ns in place and returns its median and 99th percentile
// in microseconds. Every workload is sized so that p99 keeps at least ten
// samples beyond it (tailPercentile(n) >= 99); shorter smoke runs report
// the highest percentile their sample supports under the same name.
func summarize(ns []int64) latencies {
	slices.Sort(ns)
	tail := math.Min(tailPercentile(len(ns)), 99)
	return latencies{
		p50us: float64(percentile(ns, 50)) / 1e3,
		p99us: float64(percentile(ns, tail)) / 1e3,
		n:     len(ns),
	}
}

// blocks is how many equal stretches, in run order, a timed section is cut
// into for quietQuartile. Thirty-two keeps even dense-sim's blocks (140
// TTIs at the shipped length) longer than a GC cycle, so no block escapes
// the collector's cost.
const blocks = 32

// quietQuartile summarizes a section's TTI times by its quieter blocks: the
// section is cut into blocks, each block gives its median TTI and its rate
// (TTIs over the time spent in them), and the result is the lower quartile
// of the medians and the upper quartile of the rates — the eighth best of
// thirty-two. Interference from the host only ever slows a stretch down — a
// neighbour's burst on a shared machine lasts a second or three, a
// descheduled driver loses a time slice — so the better quartile measures
// the program; a change to the program moves every block, and so moves the
// quartile too. The quartile rather than the best block: one lucky block
// must not set the number.
func quietQuartile(ns []int64) (p50us, perS float64) {
	n := len(ns) / blocks
	if n == 0 {
		return 0, 0
	}
	medians := make([]float64, blocks)
	rates := make([]float64, blocks)
	scratch := make([]int64, n)
	for b := range medians {
		copy(scratch, ns[b*n:(b+1)*n])
		var sum int64
		for _, v := range scratch {
			sum += v
		}
		slices.Sort(scratch)
		medians[b] = float64(percentile(scratch, 50)) / 1e3
		rates[b] = float64(n) / (float64(sum) / 1e9)
	}
	slices.Sort(medians)
	slices.Sort(rates)
	return medians[blocks/4-1], rates[blocks-blocks/4]
}
