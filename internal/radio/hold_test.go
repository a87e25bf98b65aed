package radio

import (
	"math"
	"math/rand"
	"testing"

	"flexran/internal/lte"
)

// probe is a mobility model the test steers by hand.
type probe struct{ p Point }

func (m *probe) PositionAt(lte.Subframe) Point { return m.p }

// randomMap draws 1-20 sites over a square of the given side: eNodeBs with
// several sites, co-located sites (of the same or of different eNodeBs) and
// mixed transmit powers. It returns the map and the number of eNodeB ids in
// use (1..enbs).
func randomMap(rng *rand.Rand, side float64) (*Map, int) {
	n := 1 + rng.Intn(20)
	enbs := 1 + rng.Intn(n)
	sites := make([]Site, n)
	for i := range sites {
		pos := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		if i > 0 && rng.Intn(6) == 0 {
			pos = sites[rng.Intn(i)].Tx.Pos
		}
		sites[i] = Site{
			ENB: lte.ENBID(1 + rng.Intn(enbs)), Cell: lte.CellID(i),
			Tx: Transmitter{Pos: pos, PowerDBm: []float64{43, 30, 46}[rng.Intn(3)]},
		}
	}
	return NewMap(sites...), enbs
}

// exactCQI is the stateless oracle: what GeoChannel.CQI returned before it
// learned to hold.
func exactCQI(m *Map, p Point, serving lte.ENBID) lte.CQI {
	sinr, ok := m.SINRdB(p, serving)
	if !ok {
		return 0
	}
	return CQIFromSINRdB(sinr)
}

// TestGeoChannelHoldMatchesExact is the differential oracle of the hold: on
// seeded random maps a UE walks at 0-120 m/s with teleports, standstills,
// passes 0.5 m from a site and handovers (also to eNodeBs with no site), and
// at every step the channel must answer what the exact evaluation answers.
//
// It was run against three broken variants of the hold and fails on each:
// the radius doubled, Retarget keeping the hold, and the nearest-site
// distance taken over the interferers only.
func TestGeoChannelHoldMatchesExact(t *testing.T) {
	const maps, stepsPerMap = 250, 4000 // 1 M steps
	rng := rand.New(rand.NewSource(23))
	var calls, exact uint64
	sf := lte.Subframe(0)
	for mi := 0; mi < maps; mi++ {
		side := 300 + rng.Float64()*2700
		m, enbs := randomMap(rng, side)
		mob := &probe{p: Point{X: rng.Float64() * side, Y: rng.Float64() * side}}
		ch := NewGeoChannel(m, mob, lte.ENBID(1+rng.Intn(enbs)))
		var vx, vy float64
		turn := func() {
			step := rng.Float64() * 0.12 // meters per TTI
			a := rng.Float64() * 2 * math.Pi
			vx, vy = step*math.Cos(a), step*math.Sin(a)
		}
		turn()
		for i := 0; i < stepsPerMap; i++ {
			switch r := rng.Intn(2000); {
			case r == 0: // teleport anywhere
				mob.p = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			case r == 1: // teleport next to a site and walk past it
				s := m.Sites[rng.Intn(len(m.Sites))].Tx.Pos
				mob.p = Point{X: s.X - 3, Y: s.Y + 0.5}
				vx, vy = 0.01+rng.Float64()*0.1, 0
			case r == 2: // handover, sometimes to an eNodeB with no site
				ch.Retarget(lte.ENBID(rng.Intn(enbs + 2)))
			case r == 3: // stand still
				vx, vy = 0, 0
			case r < 16:
				turn()
			}
			mob.p.X += vx
			mob.p.Y += vy
			sf++
			if got, want := ch.CQI(sf), exactCQI(m, mob.p, ch.Serving()); got != want {
				t.Fatalf("map %d step %d at %+v serving %d: CQI = %d, exact evaluation says %d (hold %+v)",
					mi, i, mob.p, ch.Serving(), got, want, ch.hold)
			}
		}
		calls += stepsPerMap
		exact += ch.exact
	}
	held := 1 - float64(exact)/float64(calls)
	t.Logf("%d steps, %d exact evaluations, %.2f%% held", calls, exact, 100*held)
	if held < 0.5 {
		t.Errorf("only %.1f%% of the calls were held: the oracle compared the exact path with itself", 100*held)
	}
}

// The edges of the bound, on the two functions the radius is made of and
// then through the channel.
func TestHoldRadiusEdges(t *testing.T) {
	lo, hi := cqiSINRThresholdsDB[0], cqiSINRThresholdsDB[lte.MaxCQI-1]
	margins := []struct {
		name string
		sinr float64
		want float64
	}{
		{"on the first threshold", lo, 0},
		{"on a middle threshold", cqiSINRThresholdsDB[7], 0},
		{"on the last threshold", hi, 0},
		{"CQI 0 has only the threshold above", lo - 10, 10},
		{"CQI 15 has only the threshold below", hi + 7, 7},
		{"between two thresholds, nearer the lower", cqiSINRThresholdsDB[3] + 0.5, 0.5},
		{"between two thresholds, nearer the upper", cqiSINRThresholdsDB[4] - 0.25, 0.25},
		{"no signal at all", math.Inf(-1), math.Inf(1)},
	}
	for _, c := range margins {
		if got := thresholdMarginDB(c.sinr); got != c.want && !(math.Abs(got-c.want) <= 1e-12) {
			t.Errorf("%s: thresholdMarginDB(%v) = %v, want %v", c.name, c.sinr, got, c.want)
		}
	}
	if got := thresholdMarginDB(math.NaN()); !math.IsNaN(got) {
		t.Errorf("thresholdMarginDB(NaN) = %v, want NaN", got)
	}

	for _, c := range []struct {
		name             string
		nearestM, margin float64
	}{
		{"SINR on a threshold", 500, 0},
		{"margin inside epsilon", 500, holdEpsDB},
		{"on top of a site", 0, 5},
		{"inside the 1 m floor", 0.5, 5},
		{"at the 1 m floor", 1, 5},
		{"NaN margin", 500, math.NaN()},
		{"NaN distance", math.NaN(), 5},
	} {
		if r := holdRadius(c.nearestM, c.margin); r != 0 {
			t.Errorf("%s: holdRadius(%v, %v) = %v, want no hold", c.name, c.nearestM, c.margin, r)
		}
	}
	// The radius stays strictly under the closed form, grows with the margin
	// and with the distance, and never lets a distance reach the 1 m floor.
	for _, d := range []float64{1.5, 10, 450, 5000} {
		prev := 0.0
		for _, m := range []float64{1e-3, 0.1, 1, 2.4, 10, 60, math.Inf(1)} {
			r := holdRadius(d, m)
			bound := d * (1 - math.Pow(10, -m/(2*pathLossSlopeDB)))
			if !(r > 0 && r < bound && r <= d-1 && r >= prev) {
				t.Errorf("holdRadius(%v, %v) = %v: want in (0, %v), at most %v, at least %v", d, m, r, bound, d-1, prev)
			}
			prev = r
		}
	}

	// Through the channel: a UE 0.5 m from its site arms nothing; on a
	// single-site map (no interferer: SINR is signal over noise) the hold
	// follows the oracle from CQI 15 at the mast to CQI 0 far out.
	solo := NewMap(Site{ENB: 1, Tx: Transmitter{Pos: Point{X: 100, Y: 100}, PowerDBm: 43}})
	mob := &probe{p: Point{X: 100.5, Y: 100}}
	ch := NewGeoChannel(solo, mob, 1)
	if ch.CQI(0); ch.hold != (cqiHold{}) {
		t.Errorf("hold armed 0.5 m from the site: %+v", ch.hold)
	}
	seen := map[lte.CQI]bool{}
	for i := 0; i < 400000; i++ {
		mob.p.X += 0.1
		got := ch.CQI(lte.Subframe(i))
		if want := exactCQI(solo, mob.p, 1); got != want {
			t.Fatalf("single-site map at %+v: CQI = %d, exact evaluation says %d", mob.p, got, want)
		}
		seen[got] = true
	}
	if !seen[0] || !seen[lte.MaxCQI] || len(seen) != lte.MaxCQI+1 {
		t.Errorf("the walk out of the single cell saw CQIs %v, want all of 0..15", seen)
	}
	if ch.exact > 40000 {
		t.Errorf("single-site walk: %d of 400000 calls evaluated exactly, want under 10%%", ch.exact)
	}

	// A hold is tied to the map it was proved on.
	mob.p = Point{X: 400, Y: 100}
	ch.CQI(0)
	if ch.hold.on != solo {
		t.Fatalf("no hold armed 300 m from the only site: %+v", ch.hold)
	}
	ch.Map = NewMap(solo.Sites[0], Site{ENB: 2, Tx: Transmitter{Pos: Point{X: 420, Y: 100}, PowerDBm: 43}})
	if got, want := ch.CQI(1), exactCQI(ch.Map, mob.p, 1); got != want {
		t.Errorf("after the map was replaced: CQI = %d, exact evaluation says %d", got, want)
	}
}

// TestGeoChannelHoldRate keeps the hold from rotting into a no-op: on the
// ctl-mix geometry (4 x 4 sites 900 m apart, UEs at 30-60 m/s on seeded
// polylines, handed over to the strongest cell every measurement period
// with 3 dB of hysteresis) the number of exact evaluations is deterministic,
// and at least nine calls in ten are answered by the hold. (Measured: 1,594
// exact evaluations in 60,000 calls, 97.3 % held; ctl-mix holds 97.6 %.)
func TestGeoChannelHoldRate(t *testing.T) {
	const ues, ttis = 12, 5000
	rng := rand.New(rand.NewSource(1))
	m := gridMap()
	chans := make([]*GeoChannel, ues)
	for u := range chans {
		path := make([]Point, 6)
		for i := range path {
			path[i] = Point{X: -200 + rng.Float64()*3100, Y: -200 + rng.Float64()*3100}
		}
		w := &Waypoint{Path: path, SpeedMps: 30 + 30*float64(u)/(ues-1), PingPong: true}
		chans[u] = NewGeoChannel(m, w, 1)
	}
	var buf []Meas
	handovers := 0
	for sf := lte.Subframe(0); sf < ttis; sf++ {
		for _, ch := range chans {
			ch.CQI(sf)
			if sf%10 != 0 {
				continue
			}
			var serving Meas
			if serving, buf = ch.Measure(sf, buf); buf[0].RSRPdBm > serving.RSRPdBm+3 {
				ch.Retarget(buf[0].ENB)
				handovers++
			}
		}
	}
	var exact uint64
	for _, ch := range chans {
		exact += ch.exact
	}
	held := 1 - float64(exact)/(ues*ttis)
	t.Logf("%d exact evaluations in %d calls (%d handovers): %.1f%% held", exact, ues*ttis, handovers, 100*held)
	if held < 0.9 {
		t.Errorf("%.1f%% of the calls were held, want at least 90%%", 100*held)
	}
}

// measureReference is GeoChannel.Measure as it was before the one-pass
// survey: every site's path loss computed once by bestSite, once by rssiDBm
// and once for the list, into a fresh slice.
func measureReference(g *GeoChannel, sf lte.Subframe) (Meas, []Meas) {
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

// Measure through the survey must be bit-identical to the three-pass
// reference (the goldens pin every RSRP/RSRQ a MeasReport rounds), also when
// the buffer it is handed still holds another UE's list.
func TestGeoChannelMeasureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf []Meas
	for mi := 0; mi < 300; mi++ {
		side := 300 + rng.Float64()*2700
		m, enbs := randomMap(rng, side)
		mob := &probe{}
		ch := NewGeoChannel(m, mob, 0)
		for i := 0; i < 50; i++ {
			mob.p = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			if i%10 == 0 {
				mob.p = m.Sites[rng.Intn(len(m.Sites))].Tx.Pos
			}
			ch.Retarget(lte.ENBID(rng.Intn(enbs + 2)))
			wantS, wantN := measureReference(ch, 0)
			var gotS Meas
			gotS, buf = ch.Measure(0, buf)
			if gotS != wantS {
				t.Fatalf("map %d at %+v serving %d: serving = %+v, want %+v", mi, mob.p, ch.Serving(), gotS, wantS)
			}
			if len(buf) != len(wantN) {
				t.Fatalf("map %d at %+v serving %d: %d neighbours, want %d", mi, mob.p, ch.Serving(), len(buf), len(wantN))
			}
			for k := range buf {
				if buf[k] != wantN[k] {
					t.Fatalf("map %d at %+v serving %d: neighbour %d = %+v, want %+v", mi, mob.p, ch.Serving(), k, buf[k], wantN[k])
				}
			}
		}
	}
}

// TestAllocGateGeoChannelMeasure: a measurement sweep that hands each result
// back as the next buffer allocates nothing once the buffer has grown.
func TestAllocGateGeoChannelMeasure(t *testing.T) {
	g := NewGeoChannel(gridMap(), &Waypoint{Path: []Point{{X: 750, Y: 850}, {X: 1150, Y: 1000}}, SpeedMps: 30, PingPong: true}, 6)
	sf := lte.Subframe(0)
	var buf []Meas
	var strongest float64
	if got := testing.AllocsPerRun(1000, func() {
		sf += 10
		_, buf = g.Measure(sf, buf)
		strongest += buf[0].RSRPdBm
	}); got != 0 {
		t.Errorf("GeoChannel.Measure: %.1f allocs/op, want 0", got)
	}
	if len(buf) != 15 || strongest == 0 {
		t.Errorf("the sweep measured %d neighbours: the gate measured nothing", len(buf))
	}
}

// waypointReference is Waypoint.PositionAt as it was before the segment
// lengths were cached: the polyline re-measured on every call.
func waypointReference(w *Waypoint, sf lte.Subframe) Point {
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

// The cached walk must put the UE where the re-measuring one did, bit for
// bit: paths of 0-7 points with repeated points (zero-length segments), any
// speed, both end behaviours.
func TestWaypointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for wi := 0; wi < 2000; wi++ {
		path := make([]Point, rng.Intn(8))
		for i := range path {
			path[i] = Point{X: rng.Float64()*2000 - 500, Y: rng.Float64()*2000 - 500}
			if i > 0 && rng.Intn(4) == 0 {
				path[i] = path[i-1]
			}
		}
		w := &Waypoint{Path: path, SpeedMps: rng.Float64()*130 - 5, PingPong: rng.Intn(2) == 0}
		ref := &Waypoint{Path: path, SpeedMps: w.SpeedMps, PingPong: w.PingPong}
		for i := 0; i < 50; i++ {
			sf := lte.Subframe(rng.Int63n(400000))
			if got, want := w.PositionAt(sf), waypointReference(ref, sf); got != want {
				t.Fatalf("walker %d (%+v) at sf %d: %+v, want %+v bit for bit", wi, *ref, sf, got, want)
			}
		}
	}
}

// Path is an exported field: a slice assigned after PositionAt has measured
// the previous one is measured afresh, whatever it shares with the old one.
func TestWaypointPathReplaced(t *testing.T) {
	long := []Point{{X: 0}, {X: 100}, {X: 100, Y: 300}, {X: -50, Y: 300}}
	w := &Waypoint{Path: long, SpeedMps: 20, PingPong: true}
	check := func(what string) {
		t.Helper()
		ref := &Waypoint{Path: w.Path, SpeedMps: w.SpeedMps, PingPong: w.PingPong}
		for _, sf := range []lte.Subframe{0, 1, 4999, 12345, 600000} {
			if got, want := w.PositionAt(sf), waypointReference(ref, sf); got != want {
				t.Errorf("%s: at sf %d = %+v, want %+v", what, sf, got, want)
			}
		}
	}
	check("first path")
	w.Path = long[:3]
	check("a prefix of the first slice")
	w.Path = []Point{{X: 5, Y: 5}, {X: 5, Y: 50}, {X: 70, Y: 50}}
	check("a new slice of the same length")
	w.Path = long[1:]
	check("a suffix of the first slice")
	w.Path = long[:1]
	check("a single point")
	w.Path = long
	check("the first path again")
}
