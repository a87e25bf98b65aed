package ue

import (
	"math"
	"math/rand"
	"testing"

	"flexran/internal/lte"
)

func total(g Generator, from, to lte.Subframe) int {
	sum := 0
	for sf := from; sf < to; sf++ {
		sum += g.BytesAt(sf)
	}
	return sum
}

func TestCBRRate(t *testing.T) {
	g := NewCBR(1000) // 1 Mb/s
	got := total(g, 0, 1000)
	want := 125000 // bytes per second at 1 Mb/s
	if got != want {
		t.Errorf("CBR delivered %d bytes/s, want %d", got, want)
	}
}

func TestCBRFractionalAccumulation(t *testing.T) {
	g := NewCBR(1) // 1 kb/s -> 0.125 bytes per TTI
	got := total(g, 0, 8000)
	if got != 1000 {
		t.Errorf("1 kb/s over 8 s = %d bytes, want 1000", got)
	}
}

func TestCBRWindow(t *testing.T) {
	g := &CBR{RateKbps: 800, Start: 100, Stop: 200}
	if g.BytesAt(50) != 0 {
		t.Error("traffic before start")
	}
	in := total(g, 100, 200)
	if in != 10000 {
		t.Errorf("window bytes = %d, want 10000", in)
	}
	if g.BytesAt(250) != 0 {
		t.Error("traffic after stop")
	}
}

func TestFullBuffer(t *testing.T) {
	g := NewFullBuffer()
	if g.BytesAt(0) == 0 || g.BytesAt(1) == 0 {
		t.Error("full buffer must always offer bytes")
	}
}

func TestOnOffDutyCycle(t *testing.T) {
	g := &OnOff{RateKbps: 1000, OnTTI: 100, OffTTI: 100}
	on := total(g, 0, 100)
	off := total(g, 100, 200)
	if off != 0 {
		t.Errorf("off phase produced %d bytes", off)
	}
	if on < 12000 || on > 13000 {
		t.Errorf("on phase produced %d bytes, want ~12500", on)
	}
	degenerate := &OnOff{RateKbps: 1000}
	if degenerate.BytesAt(0) != 0 {
		t.Error("zero cycle should produce nothing")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	g := &Poisson{MeanKbps: 2000, Seed: 3}
	got := total(g, 0, 20000) // 20 s
	want := 2000.0 / 8 * 20000
	if math.Abs(float64(got)-want)/want > 0.1 {
		t.Errorf("poisson mean = %d bytes, want ~%.0f", got, want)
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := &Poisson{MeanKbps: 500, Seed: 9}
	b := &Poisson{MeanKbps: 500, Seed: 9}
	for sf := lte.Subframe(0); sf < 2000; sf++ {
		if a.BytesAt(sf) != b.BytesAt(sf) {
			t.Fatalf("diverged at %v", sf)
		}
	}
}

// poissonV1 is Poisson's process on math/rand's source, the one it drew
// from before every model moved to a 16-byte PCG.
type poissonV1 struct {
	perTTI  float64
	rnd     *rand.Rand
	nextGap float64
}

func newPoissonV1(meanKbps float64, packetBytes int, seed int64) *poissonV1 {
	p := &poissonV1{perTTI: meanKbps / 8 / float64(packetBytes), rnd: rand.New(rand.NewSource(seed))}
	p.nextGap = p.rnd.ExpFloat64() / p.perTTI
	return p
}

// packets is the number of packets BytesAt would emit this TTI.
func (p *poissonV1) packets() int {
	n := 0
	for p.nextGap--; p.nextGap <= 0; n++ {
		p.nextGap += p.rnd.ExpFloat64() / p.perTTI
	}
	return n
}

// gapStats accumulates packet inter-arrival times in TTIs.
type gapStats struct {
	n, sum, sumSq float64
	last          int
	seen          bool
}

// add records the k packets of TTI sf.
func (s *gapStats) add(sf, k int) {
	for ; k > 0; k-- {
		if s.seen {
			g := float64(sf - s.last)
			s.n++
			s.sum += g
			s.sumSq += g * g
		}
		s.last, s.seen = sf, true
	}
}

func (s *gapStats) mean() float64     { return s.sum / s.n }
func (s *gapStats) variance() float64 { m := s.mean(); return s.sumSq/s.n - m*m }

// TestPoissonDistributionMatchesV1 is the evidence that moving Poisson to a
// PCG source changed its draws but not the process: at 0.1 and 1 packet per
// TTI, 200 seeded generators run for 20 s each must give the same
// inter-arrival mean and variance, in TTIs, as the process on math/rand's
// source with the same seeds. With ≥ 400,000 gaps per side, one standard
// error of the difference is about 0.25 % of the mean and 0.7 % of the
// variance; the tolerances are 1 % and 3 %. (Measured: at most 0.22 % and
// 0.26 %.) Uniform gaps of the same mean have a third of the variance.
func TestPoissonDistributionMatchesV1(t *testing.T) {
	const (
		packetBytes   = 1200
		seeds, ttis   = 200, 20000
		meanTolerance = 0.01
		varTolerance  = 0.03
	)
	for _, perTTI := range []float64{0.1, 1} {
		kbps := perTTI * 8 * packetBytes
		var pcg, v1 gapStats
		for seed := int64(1); seed <= seeds; seed++ {
			p := &Poisson{MeanKbps: kbps, PacketBytes: packetBytes, Seed: seed}
			q := newPoissonV1(kbps, packetBytes, seed)
			pcg.seen, v1.seen = false, false
			for sf := 0; sf < ttis; sf++ {
				pcg.add(sf, p.BytesAt(lte.Subframe(sf))/packetBytes)
				v1.add(sf, q.packets())
			}
		}
		dm := math.Abs(pcg.mean()/v1.mean() - 1)
		dv := math.Abs(pcg.variance()/v1.variance() - 1)
		t.Logf("%v packets/TTI: mean %.4f vs %.4f, variance %.4f vs %.4f over %.0f gaps",
			perTTI, pcg.mean(), v1.mean(), pcg.variance(), v1.variance(), pcg.n)
		if dm > meanTolerance {
			t.Errorf("%v packets/TTI: inter-arrival mean %.4f TTIs, %.4f on math/rand's source", perTTI, pcg.mean(), v1.mean())
		}
		if dv > varTolerance {
			t.Errorf("%v packets/TTI: inter-arrival variance %.4f, %.4f on math/rand's source", perTTI, pcg.variance(), v1.variance())
		}
	}
}

func TestTCPConvergesBelowAvailable(t *testing.T) {
	flow := NewTCP()
	mean := flow.MeanGoodput(10, 20000)
	if mean > 10 {
		t.Errorf("goodput %v exceeds available", mean)
	}
	if mean < 8.5 || mean > 9.8 {
		t.Errorf("steady goodput = %v, want ~0.9x of 10", mean)
	}
}

func TestTCPReactsToBandwidthDrop(t *testing.T) {
	flow := NewTCP()
	flow.MeanGoodput(15, 5000)
	// Available drops sharply: goodput must follow within a few RTTs.
	got := flow.MeanGoodput(2, 2000)
	if got > 2 {
		t.Errorf("goodput %v above new available 2", got)
	}
	if got < 1.5 {
		t.Errorf("goodput %v too far below available 2", got)
	}
}

func TestMaxTCPThroughputTable2(t *testing.T) {
	// The Table 2 calibration points (paper: 1.63, 2.2, 3.3, 15 Mb/s).
	cases := []struct {
		cqi  lte.CQI
		want float64
		tol  float64
	}{
		{2, 1.63, 0.25},
		{3, 2.2, 0.3},
		{4, 3.3, 0.4},
		{10, 15.0, 1.2},
	}
	for _, c := range cases {
		got := MaxTCPThroughput(c.cqi)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("MaxTCPThroughput(%d) = %.2f, want %.2f +- %.2f",
				c.cqi, got, c.want, c.tol)
		}
	}
}

func TestTCPThroughputMonotonicInCQI(t *testing.T) {
	prev := 0.0
	for c := lte.CQI(1); c <= lte.MaxCQI; c++ {
		got := MaxTCPThroughput(c)
		if got <= prev {
			t.Errorf("TCP throughput not increasing at CQI %d: %v <= %v", c, got, prev)
		}
		prev = got
	}
}
