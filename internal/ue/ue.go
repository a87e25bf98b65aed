// Package ue emulates user-equipment behaviour above the data plane: the
// traffic a UE sources and sinks (the role of the COTS Nexus 5 and the
// emulated UEs in the paper's testbed), and a small AIMD model of a TCP
// flow over the LTE link used by the MEC/DASH experiments.
//
// Traffic generators are pull-based and deterministic: the simulation loop
// asks each generator how many bytes arrive in the current subframe and
// enqueues them at the eNodeB (downlink via the EPC, uplink directly).
package ue

import (
	"math"
	"math/rand/v2"

	"flexran/internal/lte"
	"flexran/internal/rng"
)

// Generator produces traffic, one subframe at a time. Implementations are
// stateful (fractional byte accumulation) and must be queried with a
// non-decreasing subframe sequence.
type Generator interface {
	// BytesAt returns the bytes arriving during subframe sf.
	BytesAt(sf lte.Subframe) int
}

// Idler is the optional Generator extension behind idle fast-forward: a
// generator that can prove when its next activity occurs, and advance its
// state across a skipped idle stretch, lets the simulation loop avoid
// calling BytesAt for every silent subframe.
//
// The contract is bit-exactness: for any subframe range over which
// NextActive proves inactivity, Skip(n) must leave the generator in
// exactly the state n consecutive BytesAt calls (each returning 0) would
// have.
type Idler interface {
	Generator
	// NextActive returns the earliest subframe >= from at which BytesAt
	// may return nonzero bytes or mutate generator state. from must be
	// the subframe of the generator's next expected BytesAt call.
	NextActive(from lte.Subframe) lte.Subframe
	// Skip advances the generator across n subframes proven inactive by
	// NextActive.
	Skip(n int)
}

// CBR is a constant-bit-rate source (the "uniform UDP traffic" of the
// paper's experiments).
type CBR struct {
	// RateKbps is the constant rate.
	RateKbps float64
	// Start/Stop bound the active interval; Stop 0 means forever.
	Start, Stop lte.Subframe

	acc float64
}

// NewCBR returns an always-on constant-rate source.
func NewCBR(rateKbps float64) *CBR { return &CBR{RateKbps: rateKbps} }

// BytesAt implements Generator.
func (c *CBR) BytesAt(sf lte.Subframe) int {
	if sf < c.Start || (c.Stop != 0 && sf >= c.Stop) {
		return 0
	}
	// kbit/s over one ms = rate/8 bytes per TTI.
	c.acc += c.RateKbps / 8
	n := int(c.acc)
	c.acc -= float64(n)
	return n
}

// NextActive implements Idler: a CBR source is active exactly inside its
// [Start, Stop) window (where every BytesAt call mutates the accumulator).
func (c *CBR) NextActive(from lte.Subframe) lte.Subframe {
	if c.RateKbps <= 0 {
		return lte.NeverSF
	}
	if c.Stop != 0 && from >= c.Stop {
		return lte.NeverSF
	}
	if from < c.Start {
		return c.Start
	}
	return from
}

// Skip implements Idler. Outside the active window BytesAt returns without
// touching the accumulator, so skipping is a no-op.
func (*CBR) Skip(int) {}

// FullBuffer keeps the queue saturated (the speedtest workload of Fig. 6b).
type FullBuffer struct {
	// ChunkBytes arrive every TTI; the eNodeB queue cap bounds growth.
	ChunkBytes int
}

// NewFullBuffer returns a saturating source.
func NewFullBuffer() *FullBuffer { return &FullBuffer{ChunkBytes: 1 << 20} }

// BytesAt implements Generator.
func (f *FullBuffer) BytesAt(lte.Subframe) int { return f.ChunkBytes }

// NextActive implements Idler: a saturating source is always active, so a
// UE carrying one pins its eNodeB awake.
func (f *FullBuffer) NextActive(from lte.Subframe) lte.Subframe { return from }

// Skip implements Idler (never reached: NextActive admits no idle range).
func (*FullBuffer) Skip(int) {}

// OnOff alternates between a CBR burst and silence.
type OnOff struct {
	RateKbps float64
	OnTTI    int
	OffTTI   int

	acc float64
}

// BytesAt implements Generator.
func (o *OnOff) BytesAt(sf lte.Subframe) int {
	cycle := o.OnTTI + o.OffTTI
	if cycle == 0 || int(sf)%cycle >= o.OnTTI {
		return 0
	}
	o.acc += o.RateKbps / 8
	n := int(o.acc)
	o.acc -= float64(n)
	return n
}

// NextActive implements Idler: the source is active during the first OnTTI
// subframes of each on+off cycle and silent (accumulator untouched) for
// the rest.
func (o *OnOff) NextActive(from lte.Subframe) lte.Subframe {
	cycle := o.OnTTI + o.OffTTI
	if cycle == 0 || o.RateKbps <= 0 {
		return lte.NeverSF
	}
	if int(from)%cycle < o.OnTTI {
		return from
	}
	return from + lte.Subframe(cycle-int(from)%cycle)
}

// Skip implements Idler: off-phase BytesAt calls return without touching
// the accumulator.
func (*OnOff) Skip(int) {}

// Poisson emits exponentially distributed packet arrivals at a mean rate
// (deterministic per seed), approximating bursty M2M-style traffic.
type Poisson struct {
	MeanKbps    float64
	PacketBytes int
	Seed        int64

	rnd     *rand.Rand
	nextGap float64 // TTIs until next packet
}

// BytesAt implements Generator.
func (p *Poisson) BytesAt(lte.Subframe) int {
	p.init()
	bytes := 0
	p.nextGap--
	for p.nextGap <= 0 {
		bytes += p.PacketBytes
		p.nextGap += p.sampleGap()
	}
	return bytes
}

// init performs the lazy first-use setup shared by BytesAt and the Idler
// methods, so probing NextActive before the first BytesAt call observes
// the same deterministic state.
func (p *Poisson) init() {
	if p.rnd != nil {
		return
	}
	p.rnd = rng.New(p.Seed)
	if p.PacketBytes == 0 {
		p.PacketBytes = 1200
	}
	p.nextGap = p.sampleGap()
}

// NextActive implements Idler. BytesAt decrements the gap by one per call
// and emits when it reaches zero or below, so with the generator
// positioned at from the next emission lands ceil(nextGap)-1 calls later.
func (p *Poisson) NextActive(from lte.Subframe) lte.Subframe {
	p.init()
	k := int(math.Ceil(p.nextGap))
	if k < 1 {
		k = 1
	}
	return from + lte.Subframe(k-1)
}

// Skip implements Idler: each inactive BytesAt call is exactly one
// decrement of the gap (no emission fires, or NextActive lied). The loop
// form mirrors BytesAt decrement-for-decrement so the float64 bit pattern
// of nextGap matches the non-skipped execution.
func (p *Poisson) Skip(n int) {
	p.init()
	for i := 0; i < n; i++ {
		p.nextGap--
	}
}

func (p *Poisson) sampleGap() float64 {
	// Mean packets per TTI = rate/8/packetBytes.
	perTTI := p.MeanKbps / 8 / float64(p.PacketBytes)
	if perTTI <= 0 {
		return 1 << 30
	}
	return p.rnd.ExpFloat64() / perTTI
}

// TCP is a compact AIMD rate model of one long-lived TCP flow sharing the
// LTE downlink: additive increase each RTT while below the available
// bandwidth, multiplicative back-off on congestion. Its steady-state
// goodput settles at roughly 90% of the MAC-layer rate, matching the
// Table 2 relationship between CQI capacity and measured TCP throughput.
type TCP struct {
	// RateMbps is the current congestion-window-equivalent rate.
	RateMbps float64
	// IncMbpsPerRTT is the additive increase step (per RTT).
	IncMbpsPerRTT float64
	// Backoff is the multiplicative decrease factor on loss.
	Backoff float64
	// RTTms is the control-loop period in TTIs.
	RTTms int

	tti int
}

// NewTCP returns a flow with calibrated defaults (AIMD 0.3 Mb/s per 30 ms
// RTT, back-off 0.8 — steady state ≈ 0.9x available).
func NewTCP() *TCP {
	return &TCP{RateMbps: 0.5, IncMbpsPerRTT: 0.3, Backoff: 0.8, RTTms: 30}
}

// Step advances the model one TTI given the available link rate and
// returns the goodput achieved during the TTI (Mb/s). Offered load above
// the available rate triggers congestion back-off at the next RTT edge —
// the effect that collapses the overshooting DASH player in Fig. 11b.
func (t *TCP) Step(availMbps float64) float64 {
	t.tti++
	if t.tti%t.RTTms == 0 {
		if t.RateMbps >= availMbps {
			t.RateMbps = availMbps * t.Backoff
			if t.RateMbps < 0.1 {
				t.RateMbps = 0.1
			}
		} else {
			t.RateMbps += t.IncMbpsPerRTT
		}
	}
	if t.RateMbps < availMbps {
		return t.RateMbps
	}
	return availMbps
}

// MeanGoodput runs the model at a constant available rate and returns the
// average goodput (the "max TCP throughput" measurement of Table 2).
func (t *TCP) MeanGoodput(availMbps float64, ttis int) float64 {
	var sum float64
	for i := 0; i < ttis; i++ {
		sum += t.Step(availMbps)
	}
	return sum / float64(ttis)
}

// MaxTCPThroughput reports the steady TCP goodput achievable at a given
// CQI over the standard 10 MHz evaluation cell.
func MaxTCPThroughput(c lte.CQI) float64 {
	avail := lte.PeakRateMbps(lte.Downlink, c, lte.BW10MHz)
	flow := NewTCP()
	flow.MeanGoodput(avail, 2000) // warm up past slow start
	return flow.MeanGoodput(avail, 10000)
}
