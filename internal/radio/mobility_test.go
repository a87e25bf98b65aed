package radio

import (
	"math"
	"testing"

	"flexran/internal/lte"
)

// --- table-driven geometry invariants ---

func TestPathLossMonotoneTable(t *testing.T) {
	cases := []struct {
		name      string
		near, far float64
	}{
		{"10m-20m", 10, 20},
		{"50m-51m", 50, 51},
		{"100m-1km", 100, 1000},
		{"1km-10km", 1000, 10000},
		{"floor-2m", 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lo, hi := PathLossDB(c.near), PathLossDB(c.far)
			if lo >= hi {
				t.Errorf("PathLossDB not monotone: %v dB at %vm, %v dB at %vm",
					lo, c.near, hi, c.far)
			}
		})
	}
	// Sub-meter distances share the 1 m floor.
	for _, d := range []float64{0, 0.01, 0.5, 0.999} {
		if PathLossDB(d) != PathLossDB(1) {
			t.Errorf("PathLossDB(%v) escaped the 1 m floor", d)
		}
	}
}

func TestCQIFromSINRTable(t *testing.T) {
	cases := []struct {
		sinr float64
		want lte.CQI
	}{
		{-100, 0}, {-6.8, 0}, // below the first threshold
		{-6.7, 1}, {-4.7, 2}, {-2.3, 3},
		{0.2, 4}, {2.4, 5}, {4.3, 6}, {5.9, 7}, {8.1, 8},
		{10.3, 9}, {11.7, 10}, {14.1, 11}, {16.3, 12},
		{18.7, 13}, {21.0, 14},
		{22.7, 15}, {40, 15}, {1000, 15}, // clamped at MaxCQI
	}
	for _, c := range cases {
		if got := CQIFromSINRdB(c.sinr); got != c.want {
			t.Errorf("CQIFromSINRdB(%v) = %d, want %d", c.sinr, got, c.want)
		}
	}
	// Monotone over a fine sweep, always in [0, 15].
	prev := CQIFromSINRdB(-30)
	for s := -30.0; s <= 40; s += 0.1 {
		got := CQIFromSINRdB(s)
		if got < 0 || got > lte.MaxCQI {
			t.Fatalf("CQIFromSINRdB(%v) = %d out of [0, 15]", s, got)
		}
		if got < prev {
			t.Fatalf("CQIFromSINRdB not monotone at %v dB: %d after %d", s, got, prev)
		}
		prev = got
	}
}

func TestGaussMarkovSeedTable(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, -3, 1 << 40} {
		a := NewGaussMarkov(9, 0.95, 2, seed)
		b := NewGaussMarkov(9, 0.95, 2, seed)
		for sf := lte.Subframe(0); sf < 300; sf++ {
			if ca, cb := a.CQI(sf), b.CQI(sf); ca != cb {
				t.Fatalf("seed %d: diverged at sf %d (%d vs %d)", seed, sf, ca, cb)
			}
		}
	}
	// Different seeds must not produce identical traces (overwhelmingly).
	a, b := NewGaussMarkov(9, 0.95, 2, 1), NewGaussMarkov(9, 0.95, 2, 2)
	same := true
	for sf := lte.Subframe(0); sf < 300; sf++ {
		if a.CQI(sf) != b.CQI(sf) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical fading traces")
	}
}

// --- mobility models ---

func TestStaticMobility(t *testing.T) {
	m := Static(Point{X: 3, Y: 4})
	for _, sf := range []lte.Subframe{0, 1, 1000, 1 << 20} {
		if m.PositionAt(sf) != (Point{X: 3, Y: 4}) {
			t.Fatalf("Static moved at sf %d", sf)
		}
	}
}

func TestWaypointWalk(t *testing.T) {
	w := &Waypoint{Path: []Point{{X: 0}, {X: 100}}, SpeedMps: 10}
	// 10 m/s: at 1 s the walker is at x=10; at 10 s it arrives and stays.
	if p := w.PositionAt(1000); math.Abs(p.X-10) > 1e-9 {
		t.Errorf("position at 1 s = %v, want x=10", p)
	}
	if p := w.PositionAt(10000); math.Abs(p.X-100) > 1e-9 {
		t.Errorf("position at 10 s = %v, want x=100", p)
	}
	if p := w.PositionAt(60000); math.Abs(p.X-100) > 1e-9 {
		t.Errorf("walker overshot the final waypoint: %v", p)
	}
}

func TestWaypointPingPong(t *testing.T) {
	w := &Waypoint{Path: []Point{{X: 0}, {X: 100}}, SpeedMps: 10, PingPong: true}
	// Out in 10 s, back by 20 s, out again by 30 s.
	if p := w.PositionAt(10000); math.Abs(p.X-100) > 1e-9 {
		t.Errorf("at 10 s = %v, want x=100", p)
	}
	if p := w.PositionAt(15000); math.Abs(p.X-50) > 1e-9 {
		t.Errorf("at 15 s = %v, want x=50 (returning)", p)
	}
	if p := w.PositionAt(20000); math.Abs(p.X) > 1e-9 {
		t.Errorf("at 20 s = %v, want x=0", p)
	}
	if p := w.PositionAt(25000); math.Abs(p.X-50) > 1e-9 {
		t.Errorf("at 25 s = %v, want x=50 (outbound again)", p)
	}
}

func TestRandomWaypointDeterministicAndBounded(t *testing.T) {
	mk := func() *RandomWaypoint {
		return &RandomWaypoint{
			Min: Point{X: -50, Y: -20}, Max: Point{X: 50, Y: 20},
			SpeedMps: 30, Seed: 9,
		}
	}
	a, b := mk(), mk()
	for sf := lte.Subframe(0); sf < 5000; sf += 7 {
		pa, pb := a.PositionAt(sf), b.PositionAt(sf)
		if pa != pb {
			t.Fatalf("same seed diverged at sf %d: %v vs %v", sf, pa, pb)
		}
		if pa.X < -50 || pa.X > 50 || pa.Y < -20 || pa.Y > 20 {
			t.Fatalf("walker escaped the box at sf %d: %v", sf, pa)
		}
		// Re-query of the same subframe must be stable.
		if pa != a.PositionAt(sf) {
			t.Fatalf("re-query changed the position at sf %d", sf)
		}
	}
}

// --- geometry channel ---

func testMap() *Map {
	return NewMap(
		Site{ENB: 1, Cell: 0, Tx: Transmitter{Pos: Point{X: 0}, PowerDBm: 43}},
		Site{ENB: 2, Cell: 0, Tx: Transmitter{Pos: Point{X: 1000}, PowerDBm: 43}},
	)
}

func TestGeoChannelPositionDrivesCQI(t *testing.T) {
	m := testMap()
	near := NewGeoChannel(m, Static(Point{X: 50}), 1)
	edge := NewGeoChannel(m, Static(Point{X: 500}), 1)
	far := NewGeoChannel(m, Static(Point{X: 950}), 1)
	cNear, cEdge, cFar := near.CQI(0), edge.CQI(0), far.CQI(0)
	if !(cNear > cEdge && cEdge > cFar) {
		t.Errorf("CQI should fall toward the neighbour cell: %d, %d, %d", cNear, cEdge, cFar)
	}
}

func TestGeoChannelRetarget(t *testing.T) {
	m := testMap()
	ch := NewGeoChannel(m, Static(Point{X: 900}), 1)
	before := ch.CQI(0)
	ch.Retarget(2)
	after := ch.CQI(0)
	if ch.Serving() != 2 {
		t.Fatalf("Serving() = %d after retarget", ch.Serving())
	}
	if after <= before {
		t.Errorf("handover to the near cell should raise CQI: %d -> %d", before, after)
	}
}

func TestGeoChannelMeasure(t *testing.T) {
	m := testMap()
	ch := NewGeoChannel(m, Static(Point{X: 700}), 1)
	serving, neighbors := ch.Measure(0, nil)
	if serving.ENB != 1 {
		t.Fatalf("serving meas for eNB %d, want 1", serving.ENB)
	}
	if len(neighbors) != 1 || neighbors[0].ENB != 2 {
		t.Fatalf("neighbors = %+v, want exactly eNB 2", neighbors)
	}
	// At x=700 the neighbour (300 m away) beats the serving cell (700 m).
	if neighbors[0].RSRPdBm <= serving.RSRPdBm {
		t.Errorf("neighbour should be stronger: serving %v, neighbour %v",
			serving.RSRPdBm, neighbors[0].RSRPdBm)
	}
	// RSRQ, computed on demand, is negative (RSRP is a fraction of total
	// received power); the sweep itself leaves it 0.
	if serving.RSRQdB != 0 || neighbors[0].RSRQdB != 0 {
		t.Errorf("the sweep filled RSRQ: serving %v, neighbour %v", serving.RSRQdB, neighbors[0].RSRQdB)
	}
	rssi := ch.RSSIdBm(0)
	if q, qn := serving.RSRPdBm-rssi, neighbors[0].RSRPdBm-rssi; q >= 0 || qn >= 0 {
		t.Errorf("RSRQ must be negative: serving %v, neighbour %v", q, qn)
	}
}

// The sweep lists neighbours in site order; RankNeighbors puts the strongest
// first.
func TestGeoChannelMeasureSorted(t *testing.T) {
	m := NewMap(
		Site{ENB: 1, Cell: 0, Tx: Transmitter{Pos: Point{X: 0}, PowerDBm: 43}},
		Site{ENB: 2, Cell: 0, Tx: Transmitter{Pos: Point{X: 2000}, PowerDBm: 43}},
		Site{ENB: 3, Cell: 0, Tx: Transmitter{Pos: Point{X: 600}, PowerDBm: 43}},
		Site{ENB: 4, Cell: 0, Tx: Transmitter{Pos: Point{X: 1200}, PowerDBm: 43}},
	)
	ch := NewGeoChannel(m, Static(Point{X: 500}), 1)
	_, neighbors := ch.Measure(0, nil)
	if len(neighbors) != 3 {
		t.Fatalf("got %d neighbours, want 3", len(neighbors))
	}
	for i, want := range []lte.ENBID{2, 3, 4} {
		if neighbors[i].ENB != want {
			t.Fatalf("sweep neighbours not in site order: %+v", neighbors)
		}
	}
	RankNeighbors(neighbors)
	for i := 1; i < len(neighbors); i++ {
		if neighbors[i].RSRPdBm > neighbors[i-1].RSRPdBm {
			t.Fatalf("neighbours not sorted strongest-first: %+v", neighbors)
		}
	}
	if neighbors[0].ENB != 3 {
		t.Errorf("strongest neighbour = eNB %d, want 3 (100 m away)", neighbors[0].ENB)
	}
}

// A multi-cell eNodeB lists one Site per carrier: the UE camps on the
// strongest of them, and none of the serving eNodeB's sites leak into the
// neighbour list.
func TestGeoChannelMultiSiteServing(t *testing.T) {
	m := NewMap(
		Site{ENB: 1, Cell: 0, Tx: Transmitter{Pos: Point{X: 0}, PowerDBm: 43}},
		Site{ENB: 1, Cell: 1, Tx: Transmitter{Pos: Point{X: 400}, PowerDBm: 43}},
		Site{ENB: 2, Cell: 0, Tx: Transmitter{Pos: Point{X: 1000}, PowerDBm: 43}},
	)
	ch := NewGeoChannel(m, Static(Point{X: 380}), 1)
	serving, neighbors := ch.Measure(0, nil)
	if serving.Cell != 1 {
		t.Errorf("serving cell = %d, want 1 (the near carrier)", serving.Cell)
	}
	if len(neighbors) != 1 || neighbors[0].ENB != 2 {
		t.Errorf("neighbors = %+v, want only eNB 2", neighbors)
	}
	// Map-level queries use the same best-site rule.
	rsrpNear, _ := m.RSRPdBm(Point{X: 380}, 1)
	rsrpFar := 43 - PathLossDB(380)
	if rsrpNear <= rsrpFar {
		t.Errorf("RSRPdBm used the weaker carrier: %v vs far-site %v", rsrpNear, rsrpFar)
	}
}

func TestMapQueries(t *testing.T) {
	m := testMap()
	if _, ok := m.RSRPdBm(Point{}, 99); ok {
		t.Error("RSRP for unknown site should fail")
	}
	if _, ok := m.SINRdB(Point{}, 99); ok {
		t.Error("SINR for unknown serving site should fail")
	}
	s1, _ := m.SINRdB(Point{X: 100}, 1)
	s2, _ := m.SINRdB(Point{X: 100}, 2)
	if s1 <= s2 {
		t.Errorf("serving the near site must beat serving the far one: %v vs %v", s1, s2)
	}
	q, ok := m.RSRQdB(Point{X: 100}, 1)
	if !ok || q >= 0 {
		t.Errorf("RSRQ = %v (ok=%v), want negative", q, ok)
	}
}

// gridMap is a 4 x 4 grid of single-site eNodeBs, 900 m apart (the ctl-mix
// world's geometry).
func gridMap() *Map {
	var sites []Site
	for e := 0; e < 16; e++ {
		sites = append(sites, Site{ENB: lte.ENBID(e + 1), Tx: Transmitter{
			Pos: Point{X: float64(e%4) * 900, Y: float64(e/4) * 900}, PowerDBm: 43,
		}})
	}
	return NewMap(sites...)
}

// Map.SINRdB sums the interference in place; it must stay bit-identical to
// SINRdB over the explicit list of every other eNodeB's transmitters (the
// goldens pin every CQI it quantizes to).
func TestMapSINRMatchesInterfererList(t *testing.T) {
	m := gridMap()
	walker := &Waypoint{Path: []Point{{X: -200, Y: 100}, {X: 2900, Y: 2600}}, SpeedMps: 3000, PingPong: true}
	for sf := lte.Subframe(0); sf < 2000; sf++ {
		p := walker.PositionAt(sf)
		serving := lte.ENBID(1 + sf%16)
		var intf []Transmitter
		for _, s := range m.Sites {
			if s.ENB != serving {
				intf = append(intf, s.Tx)
			}
		}
		want := SINRdB(p, m.bestSite(p, serving).Tx, intf, nil)
		if got, ok := m.SINRdB(p, serving); !ok || got != want {
			t.Fatalf("sf %d: SINRdB = %v, %v; want %v bit for bit", sf, got, ok, want)
		}
	}
}

// TestAllocGateGeoChannelCQI gates the per-UE per-TTI channel query of a
// mobile UE — a held call, an exact evaluation (position, serving SINR
// against 15 interfering sites, CQI, next hold) and a handover — all on the
// stack. (Measured: 0 allocs/op; the interferer list it used to build was
// 55 % of ctl-mix's allocated objects.)
func TestAllocGateGeoChannelCQI(t *testing.T) {
	g := NewGeoChannel(gridMap(), &Waypoint{Path: []Point{{X: 750, Y: 850}, {X: 1150, Y: 1000}}, SpeedMps: 30, PingPong: true}, 6)
	sf := lte.Subframe(0)
	var sum int
	const runs = 1000
	if got := testing.AllocsPerRun(runs, func() {
		sf++
		sum += int(g.CQI(sf))
		if sf%100 == 0 {
			g.Retarget(6 + lte.ENBID(sf/100%2))
		}
	}); got != 0 {
		t.Errorf("GeoChannel.CQI: %.1f allocs/op, want 0", got)
	}
	if sum == 0 {
		t.Error("the walker never reported a CQI: the gate measured nothing")
	}
	if g.exact < runs/100 || g.exact > runs/2 {
		t.Errorf("%d exact evaluations in %d calls: the gate must cover held calls and misses", g.exact, runs)
	}
}
