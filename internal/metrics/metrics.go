// Package metrics provides the light-weight measurement primitives used
// throughout the FlexRAN reproduction: byte/packet counters grouped by
// category (for the Fig. 7 signaling-overhead breakdowns), time series of
// sampled values (throughput-over-time plots), exponential moving averages
// (the MEC app's CQI smoother, the PF scheduler's rate tracker) and
// empirical CDFs (Fig. 12b).
//
// All types are safe for single-writer use from the simulation loop; Meter
// additionally supports concurrent writers because the wall-clock transport
// updates it from multiple goroutines.
package metrics

import (
	"math"
	"sort"
	"sync"
)

// Meter counts bytes and messages per named category. It backs the
// signaling-overhead accounting of the FlexRAN protocol: every serialized
// message is attributed to a category such as "stats" or "commands".
type Meter struct {
	mu   sync.Mutex
	byte map[string]int64
	msgs map[string]int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{byte: make(map[string]int64), msgs: make(map[string]int64)}
}

// Record attributes one message of n bytes to the category.
func (m *Meter) Record(category string, n int) {
	m.mu.Lock()
	m.byte[category] += int64(n)
	m.msgs[category]++
	m.mu.Unlock()
}

// Bytes returns the byte total for one category.
func (m *Meter) Bytes(category string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byte[category]
}

// Messages returns the message total for one category.
func (m *Meter) Messages(category string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.msgs[category]
}

// TotalBytes returns the byte total across all categories.
func (m *Meter) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t int64
	for _, v := range m.byte {
		t += v
	}
	return t
}

// Categories returns the category names, sorted.
func (m *Meter) Categories() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.byte))
	for k := range m.byte {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a copy of the per-category byte counts.
func (m *Meter) Snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.byte))
	for k, v := range m.byte {
		out[k] = v
	}
	return out
}

// Reset zeroes all categories.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.byte = make(map[string]int64)
	m.msgs = make(map[string]int64)
	m.mu.Unlock()
}

// MbpsOver converts a byte count into megabits per second over a duration
// expressed in milliseconds.
func MbpsOver(bytes int64, millis uint64) float64 {
	if millis == 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / (float64(millis) / 1000)
}

// Series is an append-only time series of (time, value) samples.
type Series struct {
	T []float64 // sample times, caller-defined unit (usually seconds)
	V []float64
}

// Add appends one sample.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.V) }

// Trim drops all but the newest n samples, in place, so a series trimmed
// after every Add holds at most n samples and about 2n of capacity.
func (s *Series) Trim(n int) {
	if k := len(s.V) - n; k > 0 {
		s.T = append(s.T[:0], s.T[k:]...)
		s.V = append(s.V[:0], s.V[k:]...)
	}
}

// Max returns the largest value (0 for an empty series).
func (s *Series) Max() float64 {
	var m float64
	for _, v := range s.V {
		if v > m {
			m = v
		}
	}
	return m
}

// EWMA is an exponential weighted moving average.
type EWMA struct {
	alpha float64
	val   float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1]. The
// first observation initializes the average.
func NewEWMA(alpha float64) *EWMA { return &EWMA{alpha: alpha} }

// Observe folds a new sample into the average and returns the new value.
func (e *EWMA) Observe(v float64) float64 {
	if !e.init {
		e.val, e.init = v, true
		return v
	}
	e.val = e.alpha*v + (1-e.alpha)*e.val
	return e.val
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.val }

// CDF is an empirical cumulative distribution over collected samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add collects one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-quantile (q in [0,1]) of the samples, using the
// nearest-rank method. It returns NaN for an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.samples[idx]
}
