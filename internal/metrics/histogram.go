package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Log-linear bucket layout: 16 sub-buckets per power-of-two octave, so a
// bucket is at most ~6% wide — tight enough for p99.9 reporting while
// Observe stays a handful of bit operations plus one atomic add. Values
// below 16 ns land in exact unit buckets.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = (64-histSubBits)*histSub + histSub
)

// histIndex maps a non-negative value to its bucket.
func histIndex(u uint64) int {
	exp := bits.Len64(u) - 1
	if exp < histSubBits {
		return int(u)
	}
	sub := (u >> (uint(exp) - histSubBits)) & (histSub - 1)
	return int(exp-histSubBits+1)*histSub + int(sub)
}

// histLower is the inverse: the smallest value mapping to bucket i.
func histLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	oct := i / histSub
	sub := i % histSub
	exp := oct + histSubBits - 1
	return (uint64(histSub) + uint64(sub)) << (uint(exp) - histSubBits)
}

// Histogram is a log-bucketed duration histogram safe for concurrent
// writers: buckets are atomic counters, Observe never allocates and takes
// no lock, so it can sit on the per-TTI hot paths (report emit, RIB apply)
// without disturbing what it measures. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records one duration (negative values clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-quantile (q in [0,1]) by nearest rank over the
// buckets, reported as the bucket's upper bound (clamped to the observed
// maximum) — an overestimate of at most one bucket width (~6%). Returns 0
// when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			up := time.Duration(histLower(i + 1))
			if m := h.Max(); up > m {
				up = m
			}
			return up
		}
	}
	return h.Max()
}

// HistogramSummary is a point-in-time digest of a Histogram, the shape the
// deadline reports serialize.
type HistogramSummary struct {
	Count          int64
	P50, P99, P999 time.Duration
	Max, Mean      time.Duration
}

// Summary digests the histogram's current state.
func (h *Histogram) Summary() HistogramSummary {
	return HistogramSummary{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
		Mean:  h.Mean(),
	}
}

// String renders the summary on one line, microsecond-scaled.
func (s HistogramSummary) String() string {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return fmt.Sprintf("n=%d p50=%.1fµs p99=%.1fµs p99.9=%.1fµs max=%.1fµs mean=%.1fµs",
		s.Count, us(s.P50), us(s.P99), us(s.P999), us(s.Max), us(s.Mean))
}

// LoopStats aggregates the real-time engine's deadline accounting: tick
// and miss counters fed by the rt.Pacer, plus one latency histogram per
// instrumented leg of the 1 ms control loop. All fields are safe for
// concurrent writers, so one LoopStats can aggregate across many agent
// loops. The zero value is ready to use.
type LoopStats struct {
	ticks  atomic.Int64
	misses atomic.Int64

	// Step is the full loop body per due TTI: Master.Tick on the master
	// side, ENB.Step on the agent side.
	Step Histogram
	// Report is the agent leg: statistics report encode+send, per report.
	Report Histogram
	// Ingest is the master leg: the RIB Updater slot (ingest→RIB apply),
	// per Tick.
	Ingest Histogram
	// Apps is the master's application slot (event dispatch plus OnTick
	// over every registered app), per Tick — with Ingest, the
	// core-versus-applications split of the paper's Fig. 8.
	Apps Histogram
	// RTT is the command round trip, measured by the Echo TS timestamp
	// path (master stamps wall clock into Echo, the agent mirrors it in
	// EchoReply, the master observes the difference on apply).
	RTT Histogram
}

// Account folds one pacer Due result into the counters.
func (l *LoopStats) Account(due, missed int) {
	l.ticks.Add(int64(due))
	l.misses.Add(int64(missed))
}

// Ticks returns the total deadlines consumed.
func (l *LoopStats) Ticks() int64 { return l.ticks.Load() }

// Misses returns the total deadlines serviced a full period or more late.
func (l *LoopStats) Misses() int64 { return l.misses.Load() }

// MissRate returns misses/ticks (0 before the first tick).
func (l *LoopStats) MissRate() float64 {
	t := l.ticks.Load()
	if t == 0 {
		return 0
	}
	return float64(l.misses.Load()) / float64(t)
}

// LegView is one latency leg of a LoopView, microsecond-scaled.
type LegView struct {
	Count  int64   `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
}

// LoopView is the JSON form of a LoopStats: the deadline counters and
// every leg. It is the northbound /stats/loop body and each loop object of
// flexran-rt's report.
type LoopView struct {
	Ticks    int64   `json:"ticks"`
	Misses   int64   `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	Step     LegView `json:"step"`
	Report   LegView `json:"report"`
	Ingest   LegView `json:"ingest"`
	Apps     LegView `json:"apps"`
	RTT      LegView `json:"rtt"`
}

// View snapshots the stats as a LoopView.
func (l *LoopStats) View() LoopView {
	return LoopView{
		Ticks: l.Ticks(), Misses: l.Misses(), MissRate: l.MissRate(),
		Step: legView(&l.Step), Report: legView(&l.Report), Ingest: legView(&l.Ingest),
		Apps: legView(&l.Apps), RTT: legView(&l.RTT),
	}
}

func legView(h *Histogram) LegView {
	s := h.Summary()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return LegView{
		Count: s.Count, P50us: us(s.P50), P99us: us(s.P99),
		P999us: us(s.P999), MaxUs: us(s.Max), MeanUs: us(s.Mean),
	}
}

// Profile renders the FlexRAN-rtc-style loop-duration report: deadline
// counters plus every leg with at least one sample (the SIGUSR1 dump).
func (l *LoopStats) Profile() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadlines: ticks=%d misses=%d miss_rate=%.4f\n",
		l.Ticks(), l.Misses(), l.MissRate())
	for _, leg := range []struct {
		name string
		h    *Histogram
	}{
		{"step  ", &l.Step},
		{"report", &l.Report},
		{"ingest", &l.Ingest},
		{"apps  ", &l.Apps},
		{"rtt   ", &l.RTT},
	} {
		if leg.h.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: %s\n", leg.name, leg.h.Summary())
	}
	return strings.TrimRight(b.String(), "\n")
}
