package radio

import (
	"math"
	"math/rand"
	"testing"

	"flexran/internal/lte"
)

// gaussMarkovV1 is the fading process on math/rand's source, the one
// GaussMarkov drew from before every model moved to a 16-byte PCG: one
// draw per subframe, made by the call that reaches it.
type gaussMarkovV1 struct {
	Mean, Rho, Sigma float64
	Seed             int64

	rnd  *rand.Rand
	last lte.Subframe
	x    float64
}

func (g *gaussMarkovV1) CQI(sf lte.Subframe) lte.CQI {
	if g.rnd == nil {
		g.rnd = rand.New(rand.NewSource(g.Seed))
		g.x = g.Mean
	}
	for g.last < sf {
		innov := g.Sigma * math.Sqrt(1-g.Rho*g.Rho) * g.rnd.NormFloat64()
		g.x = g.Mean + g.Rho*(g.x-g.Mean) + innov
		g.last++
	}
	return quantize(g.x)
}

// cqiSeries accumulates CQI traces for a marginal histogram and a lag-1
// autocorrelation pooled over many traces.
type cqiSeries struct {
	hist       [lte.MaxCQI + 1]float64
	n          float64
	sum, sumSq float64
	lagSum     float64 // sum of c(t) * c(t-1) within each trace
	lagN       float64
	lagEnds    float64 // sum of c(t) + c(t-1) within each trace
}

// add records subframes burnIn..burnIn+n-1 of one trace.
func (s *cqiSeries) add(m Model, burnIn, n int) {
	prev := float64(m.CQI(lte.Subframe(burnIn)))
	s.record(prev)
	for sf := burnIn + 1; sf < burnIn+n; sf++ {
		c := float64(m.CQI(lte.Subframe(sf)))
		s.record(c)
		s.lagSum += c * prev
		s.lagEnds += c + prev
		s.lagN++
		prev = c
	}
}

func (s *cqiSeries) record(c float64) {
	s.hist[int(c)]++
	s.n++
	s.sum += c
	s.sumSq += c * c
}

// freq is the share of samples at CQI c.
func (s *cqiSeries) freq(c int) float64 { return s.hist[c] / s.n }

// lag1 is the lag-1 autocorrelation around the pooled mean.
func (s *cqiSeries) lag1() float64 {
	mean := s.sum / s.n
	variance := s.sumSq/s.n - mean*mean
	cov := (s.lagSum - mean*s.lagEnds + s.lagN*mean*mean) / s.lagN
	return cov / variance
}

// TestGaussMarkovDistributionMatchesV1 is the evidence that moving the
// fading process to a PCG source changed its draws but not the process:
// for rho 0.99, sigma 1.5 and each mean CQI 8-14, 500 seeded traces of
// 3,000 subframes each (after a 300-subframe burn-in from the mean) must
// give the same quantized-CQI marginal and lag-1 autocorrelation as the
// process on math/rand's source with the same seeds.
//
// The traces are correlated over ~200 subframes, so the 1.5 M samples per
// mean are worth only ~7,500 independent ones: one standard error of the
// difference between two sources is at most ~0.007 for a bin's share and
// ~0.0005 for the autocorrelation. The tolerances are about three and six
// of those, 0.02 per bin and 0.003. (Measured: at most 0.011 and 0.0009.)
// A process with rho 0 keeps the marginal but has autocorrelation ~0; one
// with sigma 20 % high moves the middle bin by ~0.04.
func TestGaussMarkovDistributionMatchesV1(t *testing.T) {
	const (
		rho, sigma   = 0.99, 1.5
		seeds        = 500
		burnIn, n    = 300, 3000
		binTolerance = 0.02
		lagTolerance = 0.003
	)
	for mean := 8.0; mean <= 14; mean++ {
		var pcg, v1 cqiSeries
		for i := int64(1); i <= seeds; i++ {
			seed := int64(mean)*seeds + i
			pcg.add(NewGaussMarkov(mean, rho, sigma, seed), burnIn, n)
			v1.add(&gaussMarkovV1{Mean: mean, Rho: rho, Sigma: sigma, Seed: seed}, burnIn, n)
		}
		worst := 0.0
		for c := 1; c <= lte.MaxCQI; c++ {
			d := math.Abs(pcg.freq(c) - v1.freq(c))
			worst = max(worst, d)
			if d > binTolerance {
				t.Errorf("mean %v: CQI %d is %.4f of samples, %.4f on math/rand's source", mean, c, pcg.freq(c), v1.freq(c))
			}
		}
		lp, lv := pcg.lag1(), v1.lag1()
		if math.Abs(lp-lv) > lagTolerance {
			t.Errorf("mean %v: lag-1 autocorrelation %.4f, %.4f on math/rand's source", mean, lp, lv)
		}
		t.Logf("mean %v: largest bin difference %.4f, lag-1 %.4f vs %.4f", mean, worst, lp, lv)
	}
}

// TestAllocGateGaussMarkovCQI gates the fading channel's per-TTI query,
// gaps included: the random source allocated by the first call is the only
// allocation. (Measured: 0 allocs/op.)
func TestAllocGateGaussMarkovCQI(t *testing.T) {
	g := NewGaussMarkov(10, 0.99, 1.5, 1)
	g.CQI(0)
	sf := lte.Subframe(0)
	var sum int
	const runs = 1000
	if got := testing.AllocsPerRun(runs, func() {
		sf++
		if sf%100 == 0 {
			sf += 150
		}
		sum += int(g.CQI(sf))
	}); got != 0 {
		t.Errorf("GaussMarkov.CQI: %.1f allocs/op, want 0", got)
	}
	if sum == 0 || g.at < runs {
		t.Errorf("the gate reached subframe %d with CQI sum %d: it measured nothing", g.at, sum)
	}
}
