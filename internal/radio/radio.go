// Package radio supplies the channel models that replace the paper's RF
// front-end (USRP B210) and OAI's emulated PHY. A model answers one
// question per UE and subframe: what wideband CQI does the UE report?
//
// Deterministic models (Fixed, Schedule) drive the reproducible
// experiments (Table 2, Fig. 11); GaussMarkov adds realistic correlated
// fading for robustness tests; and the geometry helpers (path loss, SINR
// with switchable interferers) implement the HetNet interference scenario
// of the eICIC use case (Fig. 10).
package radio

import (
	"math"
	"math/rand/v2"
	"sort"

	"flexran/internal/lte"
	"flexran/internal/rng"
)

// Model yields the CQI a UE reports at a subframe.
type Model interface {
	CQI(sf lte.Subframe) lte.CQI
}

// ConstantCQI is an optional Model extension: a model returning true
// promises that CQI(sf) yields the same value for every subframe (and
// that calling or not calling it leaves no internal state behind). The
// simulator uses the promise to prove an idle eNodeB can be fast-forwarded
// without observable divergence. Models that cannot make the promise
// simply do not implement the interface (or return false).
type ConstantCQI interface {
	ConstantCQI() bool
}

// Fixed is a constant-quality channel.
type Fixed lte.CQI

// CQI implements Model.
func (f Fixed) CQI(lte.Subframe) lte.CQI { return lte.CQI(f).Clamp() }

// ConstantCQI implements the constancy marker: a fixed channel never
// varies.
func (f Fixed) ConstantCQI() bool { return true }

// Change is one step of a scheduled channel trace.
type Change struct {
	At  lte.Subframe
	CQI lte.CQI
}

// Schedule is a piecewise-constant channel trace: the CQI of the latest
// change at or before the queried subframe (the first change's CQI before
// that). It reproduces the paper's controlled CQI fluctuations in the MEC
// experiment ("we emulated the fluctuations of the channel quality").
type Schedule []Change

// NewSquareWave builds a schedule alternating between two CQIs with the
// given half-period, starting at a, for the given total duration.
func NewSquareWave(a, b lte.CQI, halfPeriod, total lte.Subframe) Schedule {
	var s Schedule
	cur := a
	for at := lte.Subframe(0); at < total; at += halfPeriod {
		s = append(s, Change{At: at, CQI: cur})
		if cur == a {
			cur = b
		} else {
			cur = a
		}
	}
	return s
}

// CQI implements Model.
func (s Schedule) CQI(sf lte.Subframe) lte.CQI {
	if len(s) == 0 {
		return 0
	}
	// Binary search for the last change at or before sf.
	i := sort.Search(len(s), func(i int) bool { return s[i].At > sf })
	if i == 0 {
		return s[0].CQI.Clamp()
	}
	return s[i-1].CQI.Clamp()
}

// GaussMarkov is a first-order autoregressive fading process around a mean
// CQI: x(t+1) = mean + rho*(x(t)-mean) + sigma*sqrt(1-rho^2)*N(0,1),
// sampled once per subframe from subframe 0 (x(0) = mean), quantized and
// clamped to [1, 15]. It is deterministic for a given seed, and draws one
// normal per subframe from its own 16-byte source (see internal/rng).
//
// A GaussMarkov is not safe for concurrent use.
type GaussMarkov struct {
	Mean  float64
	Rho   float64 // temporal correlation in [0, 1)
	Sigma float64 // stationary standard deviation in CQI units
	Seed  int64

	rnd *rand.Rand   // nil until the first CQI call
	x   float64      // the process at subframe at
	at  lte.Subframe // the latest subframe queried
}

// NewGaussMarkov builds the process. Typical values: rho 0.99 (slow
// fading at 1 ms sampling), sigma 1.5.
func NewGaussMarkov(mean, rho, sigma float64, seed int64) *GaussMarkov {
	return &GaussMarkov{Mean: mean, Rho: rho, Sigma: sigma, Seed: seed}
}

// CQI implements Model. Subframes are meant to be queried in
// non-decreasing order; skipped subframes advance the process to keep the
// statistics intact, and a subframe before the latest one queried reports
// the latest one's CQI.
func (g *GaussMarkov) CQI(sf lte.Subframe) lte.CQI {
	if g.rnd == nil {
		g.rnd = rng.New(g.Seed)
		g.x = g.Mean // at subframe 0
	}
	if sf > g.at {
		scale := g.Sigma * math.Sqrt(1-g.Rho*g.Rho)
		for ; g.at < sf; g.at++ {
			g.x = g.Mean + g.Rho*(g.x-g.Mean) + scale*g.rnd.NormFloat64()
		}
	}
	return quantize(g.x)
}

// quantize rounds a process value to the CQI it reports.
func quantize(x float64) lte.CQI {
	q := int(math.Round(x))
	if q < 1 {
		q = 1
	}
	if q > lte.MaxCQI {
		q = lte.MaxCQI
	}
	return lte.CQI(q)
}

// ---------------------------------------------------------------------------
// Geometry: path loss, SINR and interference-switched channels (Fig. 10).

// Point is a position in meters.
type Point struct{ X, Y float64 }

// Distance returns the Euclidean distance between two points in meters.
func Distance(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// pathLossSlopeDB is the path-loss slope in dB per decade of distance. The
// hold bound of GeoChannel.CQI is derived from it.
const pathLossSlopeDB = 37.6

// PathLossDB is the 3GPP TR 36.814 urban-macro NLOS model:
// 128.1 + 37.6 log10(d_km), floored at 1 m distance.
func PathLossDB(distanceM float64) float64 {
	if distanceM < 1 {
		distanceM = 1
	}
	return 128.1 + pathLossSlopeDB*math.Log10(distanceM/1000)
}

// Transmitter is a downlink interference source (a cell).
type Transmitter struct {
	Pos      Point
	PowerDBm float64 // total transmit power over the carrier
}

// NoiseDBm is the thermal noise floor over a 10 MHz carrier
// (-174 dBm/Hz + 10log10(10e6) ≈ -104 dBm) plus a 5 dB noise figure.
const NoiseDBm = -99.0

// SINRdB computes the downlink SINR at a UE position served by one
// transmitter, with the given co-channel interferers. active reports
// whether interferer i transmits in the considered subframe (the hook the
// eICIC almost-blank-subframe logic switches).
func SINRdB(ue Point, serving Transmitter, interferers []Transmitter, active func(i int) bool) float64 {
	sig := dbmToMw(serving.PowerDBm - PathLossDB(Distance(ue, serving.Pos)))
	intf := dbmToMw(NoiseDBm)
	for i, t := range interferers {
		if active == nil || active(i) {
			intf += dbmToMw(t.PowerDBm - PathLossDB(Distance(ue, t.Pos)))
		}
	}
	return 10 * math.Log10(sig/intf)
}

func dbmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }

// noiseMw is the noise floor in mW.
var noiseMw = dbmToMw(NoiseDBm)

// cqiSINRThresholdsDB maps SINR to CQI: entry i is the minimum SINR (dB)
// to report CQI i+1. Derived from the usual AWGN link-level thresholds
// (~10% BLER operating points, ≈1.5-2 dB per CQI step).
var cqiSINRThresholdsDB = [lte.MaxCQI]float64{
	-6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1,
	10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7,
}

// CQIFromSINRdB quantizes an SINR into the reported CQI.
func CQIFromSINRdB(sinr float64) lte.CQI {
	cqi := lte.CQI(0)
	for i, thr := range cqiSINRThresholdsDB {
		if sinr >= thr {
			cqi = lte.CQI(i + 1)
		}
	}
	return cqi
}

// thresholdMarginDB is the distance in dB from an SINR to the nearest CQI
// threshold on either side: how far the SINR can move before CQIFromSINRdB
// may answer differently. NaN for a NaN SINR.
func thresholdMarginDB(sinr float64) float64 {
	m := math.Inf(1)
	for _, thr := range cqiSINRThresholdsDB {
		m = math.Min(m, math.Abs(sinr-thr))
	}
	return m
}

// InterferenceSwitched is the channel of a UE whose quality depends on
// whether a dominant interferer transmits in the subframe — the small-cell
// victim UE of the eICIC use case. The Interfered callback is wired to the
// macro cell's per-subframe transmission state by the simulator.
type InterferenceSwitched struct {
	// Clear is the CQI reported when the interferer is silent.
	Clear lte.CQI
	// Hit is the CQI reported while the interferer transmits.
	Hit lte.CQI
	// Interfered reports whether the interferer is active at sf.
	Interfered func(sf lte.Subframe) bool
}

// CQI implements Model.
func (c *InterferenceSwitched) CQI(sf lte.Subframe) lte.CQI {
	if c.Interfered != nil && c.Interfered(sf) {
		return c.Hit.Clamp()
	}
	return c.Clear.Clamp()
}
