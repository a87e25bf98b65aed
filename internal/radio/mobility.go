package radio

// This file adds motion to the geometry helpers of radio.go: mobility
// models produce a time-varying position per UE, and GeoChannel turns that
// position into the CQI the UE reports (serving-cell SINR against every
// other site as a co-channel interferer) plus the per-neighbour RSRP/RSRQ
// measurements that drive A3 handover events. It is the substrate of the
// paper's §7.1 mobility-management use case: UEs walk between cells and
// both serving and neighbour quality derive from the same geometry.

import (
	"math"
	"math/rand/v2"

	"flexran/internal/lte"
	"flexran/internal/rng"
)

// Mobility produces a UE position per subframe. Implementations may be
// stateful; like channel models they are queried with a non-decreasing
// subframe sequence (repeat queries of the current subframe are allowed).
type Mobility interface {
	// PositionAt returns the position at subframe sf (1 TTI = 1 ms).
	PositionAt(sf lte.Subframe) Point
}

// Static is a motionless position (the degenerate mobility model).
type Static Point

// PositionAt implements Mobility.
func (s Static) PositionAt(lte.Subframe) Point { return Point(s) }

// Waypoint walks a polyline at constant speed. With PingPong the walker
// bounces between the endpoints forever; otherwise it stops at the last
// waypoint. The position is a pure function of the subframe, so the model
// is deterministic and safe to re-query; it measures its polyline once and
// keeps the lengths, so it is not safe for concurrent use.
type Waypoint struct {
	// Path is the polyline to follow (at least one point). Assigning a new
	// slice is honoured by the next PositionAt; the points of a slice that
	// PositionAt has seen must not be modified in place.
	Path []Point
	// SpeedMps is the walking speed in meters per second.
	SpeedMps float64
	// PingPong reverses direction at the ends instead of stopping.
	PingPong bool

	// segs[i] is Distance(Path[i], Path[i+1]) and total their sum in path
	// order, for the Path slice whose first element is measured.
	segs     []float64
	total    float64
	measured *Point
}

// measure records the segment lengths of the current Path.
func (w *Waypoint) measure() {
	w.segs, w.total = make([]float64, len(w.Path)-1), 0
	for i := range w.segs {
		w.segs[i] = Distance(w.Path[i], w.Path[i+1])
		w.total += w.segs[i]
	}
	w.measured = &w.Path[0]
}

// PositionAt implements Mobility.
func (w *Waypoint) PositionAt(sf lte.Subframe) Point {
	if len(w.Path) == 0 {
		return Point{}
	}
	if len(w.Path) == 1 || w.SpeedMps <= 0 {
		return w.Path[0]
	}
	if w.measured != &w.Path[0] || len(w.segs) != len(w.Path)-1 {
		w.measure()
	}
	total := w.total
	if total == 0 {
		return w.Path[0]
	}
	dist := w.SpeedMps * sf.Seconds()
	if w.PingPong {
		// Reflect the walked distance into [0, total].
		period := 2 * total
		dist = math.Mod(dist, period)
		if dist > total {
			dist = period - dist
		}
	} else if dist >= total {
		return w.Path[len(w.Path)-1]
	}
	for i, seg := range w.segs {
		if dist <= seg {
			if seg == 0 {
				return w.Path[i+1]
			}
			f := dist / seg
			a, b := w.Path[i], w.Path[i+1]
			return Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)}
		}
		dist -= seg
	}
	return w.Path[len(w.Path)-1]
}

// RandomWaypoint is the classic random-waypoint model: pick a uniform
// destination inside a rectangle, walk to it at constant speed, repeat.
// It is deterministic per seed and caches the last computed position so
// repeated queries of one subframe are stable.
type RandomWaypoint struct {
	// Min/Max are opposite corners of the bounding rectangle.
	Min, Max Point
	// SpeedMps is the walking speed in meters per second.
	SpeedMps float64
	// Seed drives destination choices.
	Seed int64

	rnd    *rand.Rand
	pos    Point
	dst    Point
	last   lte.Subframe
	inited bool
}

// PositionAt implements Mobility.
func (r *RandomWaypoint) PositionAt(sf lte.Subframe) Point {
	if !r.inited {
		r.rnd = rng.New(r.Seed)
		r.pos = r.pick()
		r.dst = r.pick()
		r.last = 0
		r.inited = true
	}
	step := r.SpeedMps / lte.TTIsPerSecond // meters per TTI
	for r.last < sf {
		d := Distance(r.pos, r.dst)
		if d <= step {
			r.pos = r.dst
			r.dst = r.pick()
		} else {
			f := step / d
			r.pos.X += f * (r.dst.X - r.pos.X)
			r.pos.Y += f * (r.dst.Y - r.pos.Y)
		}
		r.last++
	}
	return r.pos
}

func (r *RandomWaypoint) pick() Point {
	return Point{
		X: r.Min.X + r.rnd.Float64()*(r.Max.X-r.Min.X),
		Y: r.Min.Y + r.rnd.Float64()*(r.Max.Y-r.Min.Y),
	}
}

// ---------------------------------------------------------------------------
// Radio map: the cell sites of a scenario.

// Site is one cell site of the radio map.
type Site struct {
	// ENB is the eNodeB that owns the site; Cell its carrier.
	ENB  lte.ENBID
	Cell lte.CellID
	Tx   Transmitter
}

// Map is the shared site directory of a scenario: every GeoChannel of a
// deployment points at the same Map, so serving SINR and neighbour RSRP
// derive from one consistent geometry.
type Map struct {
	Sites []Site
}

// NewMap builds a radio map from sites.
func NewMap(sites ...Site) *Map { return &Map{Sites: sites} }

// bestSite returns the eNodeB's strongest site at a position (nil when
// unknown). Multi-cell eNodeBs list one Site per carrier; the UE is taken
// to camp on the best of them.
func (m *Map) bestSite(p Point, enb lte.ENBID) *Site {
	var best *Site
	bestRSRP := 0.0
	for i := range m.Sites {
		s := &m.Sites[i]
		if s.ENB != enb {
			continue
		}
		rsrp := s.Tx.PowerDBm - PathLossDB(Distance(p, s.Tx.Pos))
		if best == nil || rsrp > bestRSRP {
			best, bestRSRP = s, rsrp
		}
	}
	return best
}

// RSRPdBm is the reference-signal received power from an eNodeB's best
// site at a point: transmit power minus path loss (the PHY abstraction
// does not model per-RB normalization).
func (m *Map) RSRPdBm(p Point, enb lte.ENBID) (float64, bool) {
	s := m.bestSite(p, enb)
	if s == nil {
		return 0, false
	}
	return s.Tx.PowerDBm - PathLossDB(Distance(p, s.Tx.Pos)), true
}

// rssiDBm is the total received power at a point: every site plus noise.
func (m *Map) rssiDBm(p Point) float64 {
	total := dbmToMw(NoiseDBm)
	for i := range m.Sites {
		s := &m.Sites[i]
		total += dbmToMw(s.Tx.PowerDBm - PathLossDB(Distance(p, s.Tx.Pos)))
	}
	return 10 * math.Log10(total)
}

// RSRQdB approximates the reference-signal received quality toward a site:
// RSRP relative to the total received power over the carrier.
func (m *Map) RSRQdB(p Point, enb lte.ENBID) (float64, bool) {
	rsrp, ok := m.RSRPdBm(p, enb)
	if !ok {
		return 0, false
	}
	return rsrp - m.rssiDBm(p), true
}

// SINRdB is the downlink SINR at a point served by an eNodeB (its best
// site there), with every other eNodeB's sites as co-channel interferers.
func (m *Map) SINRdB(p Point, serving lte.ENBID) (float64, bool) {
	sv := m.bestSite(p, serving)
	if sv == nil {
		return 0, false
	}
	// Same sum, in the same site order, as SINRdB over the list of every
	// other eNodeB's transmitters — without building the list (this runs
	// per UE per TTI, and the Map is shared across workers).
	sig := dbmToMw(sv.Tx.PowerDBm - PathLossDB(Distance(p, sv.Tx.Pos)))
	intf := dbmToMw(NoiseDBm)
	for i := range m.Sites {
		if t := &m.Sites[i]; t.ENB != serving {
			intf += dbmToMw(t.Tx.PowerDBm - PathLossDB(Distance(p, t.Tx.Pos)))
		}
	}
	return 10 * math.Log10(sig/intf), true
}

// survey is one exact evaluation of the map at a point: a single pass over
// Sites that computes every site's distance and path loss once and yields
// what SINRdB, RSRPdBm and rssiDBm would, bit for bit (same expressions, same
// summation order), plus the distance to the nearest site.
type survey struct {
	best     int     // index of the serving eNodeB's strongest site, -1 if it has none
	rsrpDBm  float64 // received power from that site
	sigMw    float64 // the same in mW
	intfMw   float64 // noise plus every other eNodeB's sites, in site order
	totalMw  float64 // noise plus every site, in site order (the RSSI)
	nearestM float64 // distance to the nearest site of the map
}

// sinrDB is the serving SINR of the survey (meaningful when best >= 0).
func (sv *survey) sinrDB() float64 { return 10 * math.Log10(sv.sigMw/sv.intfMw) }

// survey evaluates the map at p for a UE served by an eNodeB. A non-nil
// neighbors receives one Meas per site of every other eNodeB, in site order,
// with RSRPdBm set (RSRQ needs the finished total).
func (m *Map) survey(p Point, serving lte.ENBID, neighbors *[]Meas) survey {
	sv := survey{best: -1, intfMw: noiseMw, totalMw: noiseMw, nearestM: math.Inf(1)}
	for i := range m.Sites {
		s := &m.Sites[i]
		d := Distance(p, s.Tx.Pos)
		if d < sv.nearestM {
			sv.nearestM = d
		}
		rsrp := s.Tx.PowerDBm - PathLossDB(d)
		mw := dbmToMw(rsrp)
		sv.totalMw += mw
		if s.ENB == serving {
			if sv.best < 0 || rsrp > sv.rsrpDBm {
				sv.best, sv.rsrpDBm, sv.sigMw = i, rsrp, mw
			}
			continue
		}
		sv.intfMw += mw
		if neighbors != nil {
			*neighbors = append(*neighbors, Meas{ENB: s.ENB, Cell: s.Cell, RSRPdBm: rsrp})
		}
	}
	return sv
}

// ---------------------------------------------------------------------------
// GeoChannel: position-derived CQI and neighbour measurements.

// Meas is one cell-quality measurement (serving or neighbour).
type Meas struct {
	ENB     lte.ENBID
	Cell    lte.CellID
	RSRPdBm float64
	RSRQdB  float64
}

// NeighborMeasurer is the optional channel-model extension the eNodeB uses
// to collect L3 measurements: the serving-cell operating point plus the
// quality of every other site of the map.
type NeighborMeasurer interface {
	// Measure returns the serving measurement and the neighbour list
	// (every other site, strongest first) at subframe sf. The list is
	// built in buf's storage, overwriting it (and growing it when too
	// small; nil is fine), so a caller that sweeps many UEs passes the
	// previous result back in and allocates nothing.
	Measure(sf lte.Subframe, buf []Meas) (serving Meas, neighbors []Meas)
}

// Retargetable is the optional channel-model extension the handover path
// uses to move a UE's serving cell (the channel follows the UE).
type Retargetable interface {
	// Retarget switches the serving site.
	Retarget(enb lte.ENBID)
}

// GeoChannel derives the reported CQI from geometry: the UE's mobility
// model yields a position, the radio map yields the serving SINR there,
// and the standard quantizer yields the CQI. It also implements
// NeighborMeasurer (A3 measurement input) and Retargetable (handover).
//
// A GeoChannel is not safe for concurrent use: CQI keeps a hold on the
// channel. It is called only from the Step of the eNodeB that owns the UE,
// and a channel changes owner only inside a handover, which the engine runs
// between TTIs with no Step in flight. The Map is shared by every channel of
// a deployment and only ever read; its sites must not change while a channel
// uses it.
type GeoChannel struct {
	Map *Map
	Mob Mobility

	serving lte.ENBID
	hold    cqiHold
	exact   uint64 // exact evaluations so far: the CQI calls no hold answered
}

// cqiHold is a proof that the CQI cannot change near a point: every
// position strictly within sqrt(r2) of at, on the map on, quantizes to cqi.
// The zero value holds nothing.
type cqiHold struct {
	on  *Map
	at  Point
	r2  float64
	cqi lte.CQI
}

// Proof constants of the hold radius, not knobs. holdEpsDB is taken off the
// threshold margin and dwarfs the rounding error of an SINR evaluation
// (around 1e-13 dB); holdSlack shrinks the radius and dwarfs the rounding
// error of the radius, of the nearest-site distance and of the squared
// displacement it is compared with (around 1e-15 relative).
const (
	holdEpsDB = 1e-6
	holdSlack = 1e-3
)

// holdRadius returns the radius around a point within which the CQI
// quantized there cannot change, given the distance D from the point to the
// nearest site of the map and the margin m, in dB, between the SINR at the
// point and the nearest CQI threshold on either side. 0 means no hold.
//
// Derivation. Path loss is PL(d) = 128.1 + s*log10(max(d, 1 m)/1 km) with
// s = pathLossSlopeDB. Move the UE by at most r < D. Site i, at distance
// d_i >= D before, is then between d_i-r and d_i+r away, and both
// (d_i+r)/d_i <= 1 + r/D <= D/(D-r) and (d_i-r)/d_i >= (D-r)/D; the 1 m
// floor only narrows that. So every site's path loss, hence its received
// power in dB, moves by at most
//
//	delta = s*log10(D/(D-r)).
//
// The serving term is the maximum over the serving eNodeB's sites of such
// powers, so it moves by at most delta (whichever site is the strongest
// afterwards). Interference plus noise is a sum in mW whose every term is
// scaled by a factor within 10^(+-delta/10) (the noise term by 1), so the
// sum is scaled by a factor in that range and moves by at most delta in dB.
// SINR is the difference of the two: |dSINR| <= 2*delta. The quantizer
// output changes only when the SINR crosses a threshold, which it cannot
// while 2*delta < m, that is while
//
//	r < D*(1 - 10^(-m/(2s))).
//
// The radius returned is that with m reduced by holdEpsDB, shrunk by
// holdSlack, and capped at D - 1 so that no distance reaches the floor.
// There is no hold when m <= holdEpsDB (the SINR sits on a threshold), when
// D <= 1 m, or when either is NaN.
func holdRadius(nearestM, marginDB float64) float64 {
	if !(marginDB > holdEpsDB && nearestM > 1) {
		return 0
	}
	shrink := math.Pow(10, -(marginDB-holdEpsDB)/(2*pathLossSlopeDB))
	return math.Min(nearestM*(1-shrink)*(1-holdSlack), nearestM-1)
}

// NewGeoChannel builds the channel of one UE served by an eNodeB.
func NewGeoChannel(m *Map, mob Mobility, serving lte.ENBID) *GeoChannel {
	return &GeoChannel{Map: m, Mob: mob, serving: serving}
}

// Serving returns the current serving eNodeB.
func (g *GeoChannel) Serving() lte.ENBID { return g.serving }

// Retarget implements Retargetable. The hold was proved for the old
// serving eNodeB, so it is dropped.
func (g *GeoChannel) Retarget(enb lte.ENBID) {
	g.serving = enb
	g.hold = cqiHold{}
}

// Position returns the UE position at a subframe.
func (g *GeoChannel) Position(sf lte.Subframe) Point {
	if g.Mob == nil {
		return Point{}
	}
	return g.Mob.PositionAt(sf)
}

// ConstantCQI reports whether this channel is provably time-invariant: a
// stationary UE (Static or absent mobility) over a fixed site map sees the
// same SINR — hence the same CQI — at every subframe. Serving-cell changes
// go through Retarget, which only happens inside a handover (the UE is
// re-admitted, so constancy is re-evaluated by the new owner). The hold CQI
// leaves behind never changes a result, so calling or not calling CQI is
// still unobservable.
func (g *GeoChannel) ConstantCQI() bool {
	if g.Mob == nil {
		return true
	}
	_, static := g.Mob.(Static)
	return static
}

// CQI implements Model: CQIFromSINRdB(Map.SINRdB(position, serving)), or 0
// when the serving eNodeB has no site. While the position stays strictly
// inside the disc of the current hold the answer is the held one; otherwise
// the map is surveyed exactly and the result arms the next hold (see
// holdRadius for why the two cannot differ).
func (g *GeoChannel) CQI(sf lte.Subframe) lte.CQI {
	p := g.Position(sf)
	h := &g.hold
	if dx, dy := p.X-h.at.X, p.Y-h.at.Y; dx*dx+dy*dy < h.r2 && h.on == g.Map {
		return h.cqi
	}
	g.exact++
	g.hold = cqiHold{}
	sv := g.Map.survey(p, g.serving, nil)
	if sv.best < 0 {
		return 0
	}
	sinr := sv.sinrDB()
	cqi := CQIFromSINRdB(sinr)
	if r := holdRadius(sv.nearestM, thresholdMarginDB(sinr)); r > 0 {
		g.hold = cqiHold{on: g.Map, at: p, r2: r * r, cqi: cqi}
	}
	return cqi
}

// Measure implements NeighborMeasurer. The serving measurement is the
// serving eNodeB's strongest site at the UE position (multi-cell eNodeBs
// camp the UE on their best carrier); all of its sites are excluded from
// the neighbour list.
func (g *GeoChannel) Measure(sf lte.Subframe, buf []Meas) (Meas, []Meas) {
	neighbors := buf[:0]
	sv := g.Map.survey(g.Position(sf), g.serving, &neighbors)
	rssi := 10 * math.Log10(sv.totalMw)
	var serving Meas
	if sv.best >= 0 {
		s := &g.Map.Sites[sv.best]
		serving = Meas{ENB: s.ENB, Cell: s.Cell, RSRPdBm: sv.rsrpDBm, RSRQdB: sv.rsrpDBm - rssi}
	}
	for i := range neighbors {
		neighbors[i].RSRQdB = neighbors[i].RSRPdBm - rssi
	}
	// Strongest neighbour first; ties broken by id for determinism.
	for i := 1; i < len(neighbors); i++ {
		for j := i; j > 0; j-- {
			a, b := &neighbors[j-1], &neighbors[j]
			if b.RSRPdBm > a.RSRPdBm || (b.RSRPdBm == a.RSRPdBm && b.ENB < a.ENB) {
				*a, *b = *b, *a
			} else {
				break
			}
		}
	}
	return serving, neighbors
}
