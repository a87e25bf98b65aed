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
	"math/rand"

	"flexran/internal/lte"
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
// waypoint. The model is a pure function of the subframe, so it is
// trivially deterministic and safe to re-query.
type Waypoint struct {
	// Path is the polyline to follow (at least one point).
	Path []Point
	// SpeedMps is the walking speed in meters per second.
	SpeedMps float64
	// PingPong reverses direction at the ends instead of stopping.
	PingPong bool
}

// PositionAt implements Mobility.
func (w *Waypoint) PositionAt(sf lte.Subframe) Point {
	if len(w.Path) == 0 {
		return Point{}
	}
	if len(w.Path) == 1 || w.SpeedMps <= 0 {
		return w.Path[0]
	}
	total := 0.0
	for i := 1; i < len(w.Path); i++ {
		total += Distance(w.Path[i-1], w.Path[i])
	}
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
	for i := 1; i < len(w.Path); i++ {
		seg := Distance(w.Path[i-1], w.Path[i])
		if dist <= seg {
			if seg == 0 {
				return w.Path[i]
			}
			f := dist / seg
			a, b := w.Path[i-1], w.Path[i]
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
		r.rnd = rand.New(rand.NewSource(r.Seed))
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
	// (every other site, strongest first) at subframe sf.
	Measure(sf lte.Subframe) (serving Meas, neighbors []Meas)
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
type GeoChannel struct {
	Map *Map
	Mob Mobility

	serving lte.ENBID
}

// NewGeoChannel builds the channel of one UE served by an eNodeB.
func NewGeoChannel(m *Map, mob Mobility, serving lte.ENBID) *GeoChannel {
	return &GeoChannel{Map: m, Mob: mob, serving: serving}
}

// Serving returns the current serving eNodeB.
func (g *GeoChannel) Serving() lte.ENBID { return g.serving }

// Retarget implements Retargetable.
func (g *GeoChannel) Retarget(enb lte.ENBID) { g.serving = enb }

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
// re-admitted, so constancy is re-evaluated by the new owner).
func (g *GeoChannel) ConstantCQI() bool {
	if g.Mob == nil {
		return true
	}
	_, static := g.Mob.(Static)
	return static
}

// CQI implements Model.
func (g *GeoChannel) CQI(sf lte.Subframe) lte.CQI {
	sinr, ok := g.Map.SINRdB(g.Position(sf), g.serving)
	if !ok {
		return 0
	}
	return CQIFromSINRdB(sinr)
}

// Measure implements NeighborMeasurer. The serving measurement is the
// serving eNodeB's strongest site at the UE position (multi-cell eNodeBs
// camp the UE on their best carrier); all of its sites are excluded from
// the neighbour list.
func (g *GeoChannel) Measure(sf lte.Subframe) (Meas, []Meas) {
	p := g.Position(sf)
	rssi := g.Map.rssiDBm(p)
	var serving Meas
	var neighbors []Meas
	servingSite := g.Map.bestSite(p, g.serving)
	for i := range g.Map.Sites {
		s := &g.Map.Sites[i]
		if s.ENB == g.serving && s != servingSite {
			continue
		}
		rsrp := s.Tx.PowerDBm - PathLossDB(Distance(p, s.Tx.Pos))
		m := Meas{ENB: s.ENB, Cell: s.Cell, RSRPdBm: rsrp, RSRQdB: rsrp - rssi}
		if s == servingSite {
			serving = m
			continue
		}
		neighbors = append(neighbors, m)
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
