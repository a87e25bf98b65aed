package main

import (
	"fmt"
	"math"
	"math/rand"

	"flexran"
	"flexran/internal/sched"
)

// Every input of a workload — channel seeds, traffic rates, mobility
// paths, which sparse eNodeBs carry traffic — derives from the run seed
// here; the program under test sees only the generated specs.
//
// Rates and mean CQIs are not drawn independently per UE: each eNodeB gets
// the same evenly spaced set of values in a seeded order. A different seed
// then moves load between UEs and changes every fading path, but offers
// each cell the same aggregate load, so a metric's spread across seeds
// measures the program and the host, not a lucky draw.

// World sizes. The smoke test shrinks nothing but the TTI counts.
const (
	denseENBs, denseUEs = 64, 32
	sparseENBs          = 4096
	sparseEvery         = 100
	tcpAgents, tcpUEs   = 2, 32
	ctlGrid, ctlUEs     = 4, 12
	ctlSpacingM         = 900
)

// shuffled returns n values evenly spaced over [lo, hi] in a seeded order.
func shuffled(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fadingUEs is one eNodeB's UE population for the dense, vanilla and TCP
// worlds: Gauss-Markov fading around a per-UE mean CQI, CBR 200-1200 kb/s.
func fadingUEs(rng *rand.Rand, enb, n int) []flexran.UESpec {
	rates := shuffled(rng, n, 200, 1200)
	cqis := shuffled(rng, n, 8, 14)
	ues := make([]flexran.UESpec, n)
	for u := range ues {
		ues[u] = flexran.UESpec{
			IMSI:    uint64(enb*1000 + u + 1),
			Channel: flexran.FadingChannel(cqis[u], 0.99, 1.5, rng.Int63()),
			DL:      flexran.NewCBR(rates[u]),
		}
	}
	return ues
}

// denseSpecs is the 64 x 32 world shared by dense-sim (agents) and
// vanilla-sim (none): the draw order does not depend on agents, so both
// get identical UEs, channels and traffic from one seed.
func denseSpecs(seed int64, agents bool) []flexran.ENBSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]flexran.ENBSpec, denseENBs)
	for e := range specs {
		specs[e] = flexran.ENBSpec{
			ID: flexran.ENBID(e + 1), Agent: agents, Seed: rng.Int63(),
			UEs: fadingUEs(rng, e+1, denseUEs),
		}
	}
	return specs
}

// sparseSpecs is the root bench_test.go newSparseSim world: 4096
// master-less eNodeBs with two silent UEs each, and one CBR UE at every
// 100th. The seed picks which residue class is active and its rates.
func sparseSpecs(seed int64) []flexran.ENBSpec {
	rng := rand.New(rand.NewSource(seed))
	// Residues 0..95 all select 41 of the 4096 eNodeBs.
	active := rng.Intn(sparseENBs % sparseEvery)
	rates := shuffled(rng, sparseENBs/sparseEvery+1, 200, 600)
	specs := make([]flexran.ENBSpec, sparseENBs)
	for e := range specs {
		spec := flexran.ENBSpec{ID: flexran.ENBID(e + 1), Seed: rng.Int63()}
		for u := 0; u < 2; u++ {
			spec.UEs = append(spec.UEs, flexran.UESpec{
				IMSI:    uint64(e*10 + u + 1),
				Channel: flexran.FixedChannel(flexran.CQI(6 + (e+u)%9)),
			})
		}
		if e%sparseEvery == active {
			spec.UEs = append(spec.UEs, flexran.UESpec{
				IMSI:    uint64(e*10 + 9),
				Channel: flexran.FixedChannel(12),
				DL:      flexran.NewCBR(rates[e/sparseEvery]),
			})
		}
		specs[e] = spec
	}
	return specs
}

// ctlSlices are the three slices the ctl-mix broker plans across; UE u of
// every eNodeB belongs to group u%3, so each slice is offered about
// 16 x 4 x 400 = 25,600 kb/s. Gold's floor sits a tenth under that, so its
// demand shrinks a little every epoch; silver's sits just over; bronze's
// queue bound holds until a UE wanders into a coverage hole. The plan then
// differs from the last one in most epochs and is pushed to all 16 agents,
// instead of converging in the warm-up and going quiet.
func ctlSlices() []flexran.SliceSpec {
	return []flexran.SliceSpec{
		{Name: "gold", Group: 0, Weight: 2, SLA: flexran.SliceSLA{MinThroughputKbps: 23000}},
		{Name: "silver", Group: 1, Weight: 1, SLA: flexran.SliceSLA{MinThroughputKbps: 27000}},
		{Name: "bronze", Group: 2, Weight: 1, SLA: flexran.SliceSLA{MaxQueueMs: 50}},
	}
}

// ctlSpecs is the ctl-mix world: a 4 x 4 site grid with 12 mobile UEs per
// eNodeB. Each UE starts next to its home site (it has to attach there) and
// then walks a seeded random polyline through the surrounding cells, back
// and forth, with a position-derived channel.
func ctlSpecs(seed int64) []flexran.ENBSpec {
	rng := rand.New(rand.NewSource(seed))
	n := ctlGrid * ctlGrid
	sites := make([]flexran.RadioSite, n)
	for e := range sites {
		sites[e] = flexran.RadioSite{ENB: flexran.ENBID(e + 1), Tx: flexran.Transmitter{
			Pos:      flexran.Point{X: float64(e%ctlGrid) * ctlSpacingM, Y: float64(e/ctlGrid) * ctlSpacingM},
			PowerDBm: 43,
		}}
	}
	rmap := flexran.NewRadioMap(sites...)
	edge := float64(ctlGrid-1) * ctlSpacingM
	// around draws a point within r meters of c on each axis, kept on the map.
	around := func(c flexran.Point, r float64) flexran.Point {
		clamp := func(v float64) float64 { return math.Max(-200, math.Min(edge+200, v)) }
		return flexran.Point{X: clamp(c.X + (2*rng.Float64()-1)*r), Y: clamp(c.Y + (2*rng.Float64()-1)*r)}
	}
	specs := make([]flexran.ENBSpec, n)
	for e := range specs {
		id := flexran.ENBID(e + 1)
		home := sites[e].Tx.Pos
		rates := shuffled(rng, ctlUEs, 200, 600)
		speeds := shuffled(rng, ctlUEs, 30, 60)
		spec := flexran.ENBSpec{ID: id, Agent: true, Seed: rng.Int63()}
		for u := 0; u < ctlUEs; u++ {
			path := []flexran.Point{around(home, 300)}
			for len(path) < 6 {
				path = append(path, around(home, 1.5*ctlSpacingM))
			}
			mob := &flexran.WaypointMobility{Path: path, SpeedMps: speeds[u], PingPong: true}
			spec.UEs = append(spec.UEs, flexran.UESpec{
				IMSI:    uint64((e+1)*1000 + u + 1),
				Channel: flexran.NewGeoChannel(rmap, mob, id),
				Group:   u % 3,
				DL:      flexran.NewCBR(rates[u]),
			})
		}
		specs[e] = spec
	}
	return specs
}

// installSlicer puts the broker's agent-side half on one agent: a PF slicer
// over the founding shares, as internal/scenario does for a slices: section.
func installSlicer(a *flexran.Agent, shares []float64) error {
	sl := sched.NewSlicer("bench-slice", shares, true, func() flexran.Scheduler { return sched.NewProportionalFair() })
	if err := a.MAC().InstallLocal(flexran.OpDLUESched, "bench-slice", sl); err != nil {
		return fmt.Errorf("installing slicer: %w", err)
	}
	if err := a.MAC().Activate(flexran.OpDLUESched, "bench-slice"); err != nil {
		return fmt.Errorf("activating slicer: %w", err)
	}
	return nil
}
