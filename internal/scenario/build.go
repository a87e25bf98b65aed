package scenario

// This file turns a validated Scenario into a running world: sim.ENBSpecs
// with per-UE channels, mobility and traffic generators, a master with the
// declared northbound applications, agent-side slicing schedulers and
// policy documents, and the scripted fault timeline. All randomness is
// seeded from the declaration (run.seed mixed with per-group seeds and UE
// indices), so two Builds of one Scenario produce bit-for-bit identical
// worlds — the property the golden digests in scenarios/ rely on.

import (
	"fmt"

	"flexran/internal/agent"
	"flexran/internal/apps"
	"flexran/internal/apps/broker"
	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/rng"
	"flexran/internal/sched"
	"flexran/internal/sim"
	"flexran/internal/ue"
)

// LifecycleEvent is one up/down liveness transition observed by the
// engine's built-in lifecycle recorder.
type LifecycleEvent struct {
	Cycle lte.Subframe `json:"cycle"`
	ENB   lte.ENBID    `json:"enb"`
	Up    bool         `json:"up"`
}

// HealthEvent is one health-monitor transition observed by the engine's
// built-in recorder. State 0 (Healthy) records a recovery; anything else
// a downgrade to that state.
type HealthEvent struct {
	Cycle lte.Subframe `json:"cycle"`
	ENB   lte.ENBID    `json:"enb"`
	State int          `json:"state"`
}

// lifecycleLog records liveness and health transitions for the Summary
// and digest.
type lifecycleLog struct {
	events []LifecycleEvent
	health []HealthEvent
}

func (*lifecycleLog) Name() string { return "scenario-lifecycle" }

func (l *lifecycleLog) OnWatch(_ *controller.Context, ev controller.WatchEvent) {
	switch ev.Kind {
	case controller.WatchUp, controller.WatchDown:
		l.events = append(l.events, LifecycleEvent{
			Cycle: ev.Cycle, ENB: ev.ENB, Up: ev.Kind == controller.WatchUp,
		})
	case controller.WatchHealth:
		l.health = append(l.health, HealthEvent{Cycle: ev.Cycle, ENB: ev.ENB, State: int(ev.Health)})
	}
}

// activityProbe feeds an InterferenceSwitched channel from another
// eNodeB's per-subframe transmission activity. It always looks one TTI
// back: the previous data-plane phase has completed, so the read does not
// depend on eNodeB step order (a same-subframe read would).
type activityProbe struct {
	enb        *enb.ENB // bound after sim construction
	cell       lte.CellID
	pendingENB lte.ENBID // the interferer to bind to
}

func (p *activityProbe) interfered(sf lte.Subframe) bool {
	return p.enb != nil && sf > 0 && p.enb.Active(p.cell, sf-1)
}

// Runtime is one built instance of a Scenario, ready to Run. Build fresh
// runtimes for every run; generators and channels are stateful.
type Runtime struct {
	Scenario *Scenario
	Sim      *sim.Sim

	// The declared applications, nil when absent.
	Monitor  *apps.Monitor
	Mobility *apps.MobilityManager
	EICIC    *apps.EICIC
	// Broker is the elastic slice broker of the slices: section; built
	// here, registered and armed when the measured run starts.
	Broker *broker.Broker

	lifecycle *lifecycleLog
	imsis     []uint64 // every UE, ascending
	groups    map[uint64]int
	sharing   []AppDecl       // ransharing apps, registered at run start
	retunes   []*retuneDriver // mobility retunes, armed at run start
}

// build wires the scenario on the TTI engine.
func (sc *Scenario) build() (*Runtime, error) {
	rmap, hasMap := sc.buildRadioMap()

	rt := &Runtime{Scenario: sc, groups: map[uint64]int{}}
	var probes []*activityProbe

	specs := make([]sim.ENBSpec, len(sc.ENBs))
	index := map[lte.ENBID]int{}
	for i := range sc.ENBs {
		d := &sc.ENBs[i]
		cells := make([]protocol.CellConfig, d.Cells)
		for c := range cells {
			cells[c] = enb.DefaultCell(lte.CellID(c))
		}
		specs[i] = sim.ENBSpec{
			ID:       d.ID,
			Cells:    cells,
			Seed:     d.Seed,
			Agent:    d.Agent,
			ToMaster: d.ToMaster,
			ToAgent:  d.ToAgent,
		}
		index[d.ID] = i
	}

	for gi := range sc.UEs {
		g := &sc.UEs[gi]
		targets := []lte.ENBID{g.ENB}
		if g.AllENBs {
			targets = targets[:0]
			for i := range sc.ENBs {
				targets = append(targets, sc.ENBs[i].ID)
			}
		}
		positions := g.positions(sc.Run.Seed, len(targets)*g.Count)
		for ti, target := range targets {
			for k := 0; k < g.Count; k++ {
				idx := ti*g.Count + k
				imsi := g.IMSIBase + uint64(idx)
				ch, probe, err := g.buildChannel(sc, rmap, hasMap, target, positions, idx)
				if err != nil {
					return nil, err
				}
				if probe != nil {
					probes = append(probes, probe)
				}
				spec := sim.UESpec{
					IMSI:    imsi,
					Cell:    g.Cell,
					Channel: ch,
					Group:   g.Group,
					DL:      buildGenerator(g.DL, sc.Run.Seed, imsi, idx, len(targets)*g.Count),
					UL:      buildGenerator(g.UL, sc.Run.Seed, imsi, idx, len(targets)*g.Count),
				}
				si := index[target]
				specs[si].UEs = append(specs[si].UEs, spec)
				rt.imsis = append(rt.imsis, imsi)
				rt.groups[imsi] = g.Group
			}
		}
	}

	cfg := sim.Config{Master: sc.Master, NoFastForward: sc.Run.NoFastForward}
	s, err := sim.New(cfg, specs...)
	if err != nil {
		return nil, fmt.Errorf("scenario: building sim: %w", err)
	}
	rt.Sim = s

	// Late-bind the interference probes now that the eNodeBs exist.
	for _, p := range probes {
		if n := rt.nodeOf(p.pendingENB); n != nil {
			p.enb = n.ENB
		}
	}

	if err := rt.applyAgentConfig(); err != nil {
		return nil, err
	}
	if err := rt.registerApps(); err != nil {
		return nil, err
	}
	return rt, nil
}

// buildRadioMap assembles the shared site directory (one site per cell of
// every placed eNodeB).
func (sc *Scenario) buildRadioMap() (*radio.Map, bool) {
	var sites []radio.Site
	for i := range sc.ENBs {
		d := &sc.ENBs[i]
		if !d.HasSite {
			continue
		}
		for c := 0; c < d.Cells; c++ {
			sites = append(sites, radio.Site{
				ENB:  d.ID,
				Cell: lte.CellID(c),
				Tx:   radio.Transmitter{Pos: radio.Point{X: d.X, Y: d.Y}, PowerDBm: d.PowerDBm},
			})
		}
	}
	if len(sites) == 0 {
		return nil, false
	}
	return radio.NewMap(sites...), true
}

// positions materializes the group's placement for n UEs.
func (g *UEGroup) positions(runSeed int64, n int) []radio.Point {
	out := make([]radio.Point, n)
	p := g.Place
	if p == nil {
		return out
	}
	switch p.Kind {
	case "at":
		for i := range out {
			out[i] = radio.Point{X: p.At.X, Y: p.At.Y}
		}
	case "line":
		for i := range out {
			t := 0.0
			if n > 1 {
				t = float64(i) / float64(n-1)
			}
			out[i] = radio.Point{
				X: p.From.X + t*(p.To.X-p.From.X),
				Y: p.From.Y + t*(p.To.Y-p.From.Y),
			}
		}
	case "box":
		rnd := rng.New(mix(runSeed, p.Seed, int64(n)))
		for i := range out {
			out[i] = radio.Point{
				X: p.Min.X + rnd.Float64()*(p.Max.X-p.Min.X),
				Y: p.Min.Y + rnd.Float64()*(p.Max.Y-p.Min.Y),
			}
		}
	}
	return out
}

// buildMobility constructs the motion model of UE idx within the group.
func (g *UEGroup) buildMobility(runSeed int64, positions []radio.Point, idx int) radio.Mobility {
	m := g.Mobility
	if m == nil {
		return radio.Static(positions[idx])
	}
	switch m.Model {
	case "waypoint":
		path := make([]radio.Point, len(m.Path))
		for i, pt := range m.Path {
			path[i] = radio.Point{X: pt.X, Y: pt.Y}
		}
		return &radio.Waypoint{
			Path:     path,
			SpeedMps: m.SpeedMps + m.SpeedStepMps*float64(idx),
			PingPong: m.PingPong,
		}
	case "random_waypoint":
		return &radio.RandomWaypoint{
			Min:      radio.Point{X: m.Min.X, Y: m.Min.Y},
			Max:      radio.Point{X: m.Max.X, Y: m.Max.Y},
			SpeedMps: m.SpeedMps + m.SpeedStepMps*float64(idx),
			Seed:     mix(runSeed, m.Seed, int64(idx)),
		}
	default: // "static"
		return radio.Static(positions[idx])
	}
}

// buildChannel constructs the channel model of UE idx, returning an
// activity probe to late-bind when the model couples to another eNodeB.
func (g *UEGroup) buildChannel(sc *Scenario, rmap *radio.Map, hasMap bool, serving lte.ENBID, positions []radio.Point, idx int) (radio.Model, *activityProbe, error) {
	c := g.Channel
	model := c.Model
	if model == "" || model == "auto" {
		if hasMap {
			model = "geo"
		} else {
			model = "fixed"
			if c.CQI == 0 {
				c.CQI = 10
			}
		}
	}
	switch model {
	case "geo":
		return radio.NewGeoChannel(rmap, g.buildMobility(sc.Run.Seed, positions, idx), serving), nil, nil
	case "fixed":
		return radio.Fixed(lte.CQI(c.CQI)), nil, nil
	case "fading":
		return radio.NewGaussMarkov(c.Mean, c.Rho, c.Sigma, mix(sc.Run.Seed, c.Seed, int64(idx))), nil, nil
	case "squarewave":
		total := lte.Subframe(sc.Run.TTIs + sc.Run.AttachTTIs)
		return radio.NewSquareWave(lte.CQI(c.A), lte.CQI(c.B), lte.Subframe(c.HalfPeriodTTI), total), nil, nil
	case "interference_switched":
		probe := &activityProbe{cell: c.InterfererCell, pendingENB: c.InterfererENB}
		return &radio.InterferenceSwitched{
			Clear:      lte.CQI(c.Clear),
			Hit:        lte.CQI(c.Hit),
			Interfered: probe.interfered,
		}, probe, nil
	}
	return nil, nil, fmt.Errorf("scenario: unknown channel model %q", model)
}

// buildGenerator instantiates one UE's traffic source from the group mix.
// UE idx draws the component whose cumulative share interval covers its
// index — a deterministic largest-prefix assignment, so a 0.5/0.5 mix of
// 10 UEs yields exactly 5 of each.
func buildGenerator(mix []TrafficDecl, runSeed int64, imsi uint64, idx, n int) ue.Generator {
	if len(mix) == 0 {
		return nil
	}
	cum := 0.0
	choice := mix[len(mix)-1]
	for _, d := range mix {
		cum += d.Share
		if float64(idx) < cum*float64(n)-1e-9 {
			choice = d
			break
		}
	}
	switch choice.Kind {
	case "cbr":
		return &ue.CBR{
			RateKbps: choice.RateKbps,
			Start:    lte.Subframe(choice.StartTTI),
			Stop:     lte.Subframe(choice.StopTTI),
		}
	case "poisson":
		return &ue.Poisson{
			MeanKbps:    choice.MeanKbps,
			PacketBytes: choice.PacketBytes,
			Seed:        mix64(runSeed, choice.Seed, int64(imsi)),
		}
	case "onoff":
		return &ue.OnOff{
			RateKbps: choice.RateKbps,
			OnTTI:    choice.OnTTI,
			OffTTI:   choice.OffTTI,
		}
	case "full_buffer":
		return ue.NewFullBuffer()
	}
	return nil
}

// applyAgentConfig installs slicing schedulers and per-eNodeB policy
// documents on the freshly built agents (before any subframe runs).
func (rt *Runtime) applyAgentConfig() error {
	sc := rt.Scenario
	decls := sc.Slices
	if b := sc.Broker; b != nil {
		bk, err := broker.New(b.Config, b.Specs...)
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		rt.Broker = bk
		// The broker's slicer goes on every agent, holding the broker's
		// split between the founding specs until its first epoch.
		decls = []SliceDecl{{All: true, Shares: bk.FoundingShares(),
			WorkConserving: b.WorkConserving, Scheduler: b.Scheduler}}
	}
	for _, d := range decls {
		for ni, n := range rt.Sim.Nodes {
			if n.Agent == nil || !d.All && sc.enbIDAt(ni) != d.ENB {
				continue
			}
			if err := installSlicer(n.Agent.MAC(), d); err != nil {
				return fmt.Errorf("scenario: slicer on eNodeB %d: %w", sc.enbIDAt(ni), err)
			}
		}
	}
	for i := range sc.ENBs {
		d := &sc.ENBs[i]
		if d.Policy == nil {
			continue
		}
		n := rt.Sim.Nodes[i]
		if n.Agent == nil {
			return fmt.Errorf("scenario: eNodeB %d has a policy but no agent", d.ID)
		}
		if err := n.Agent.ReconfigureNode(d.Policy); err != nil {
			return fmt.Errorf("scenario: applying policy to eNodeB %d: %w", d.ID, err)
		}
	}
	return nil
}

// installSlicer activates d's slicing scheduler on a MAC's downlink.
func installSlicer(mac *agent.MACModule, d SliceDecl) error {
	inner := func() sched.Scheduler { return sched.NewRoundRobin() }
	if d.Scheduler == "pf" {
		inner = func() sched.Scheduler { return sched.NewProportionalFair() }
	}
	sl := sched.NewSlicer("scn-slice", d.Shares, d.WorkConserving, inner)
	if err := mac.InstallLocal(agent.OpDLUESched, "scn-slice", sl); err != nil {
		return err
	}
	return mac.Activate(agent.OpDLUESched, "scn-slice")
}

// enbIDAt maps a node index back to the declared id (ENBs are sorted by
// id during validation, matching sim.New's node order).
func (sc *Scenario) enbIDAt(i int) lte.ENBID { return sc.ENBs[i].ID }

// nodeOf finds the runtime node of an eNodeB id.
func (rt *Runtime) nodeOf(id lte.ENBID) *sim.Node {
	for i := range rt.Scenario.ENBs {
		if rt.Scenario.ENBs[i].ID == id {
			return rt.Sim.Nodes[i]
		}
	}
	return nil
}

// registerApps wires the declared northbound applications. The lifecycle
// recorder always registers first (priority 1) so the Summary sees every
// up/down and health event; declared apps follow in document order at
// priorities 10, 20, ... — a deterministic dispatch order.
func (rt *Runtime) registerApps() error {
	if rt.Sim.Master == nil {
		return nil
	}
	rt.lifecycle = &lifecycleLog{}
	rt.Sim.Master.Register(rt.lifecycle, 1)
	for i, a := range rt.Scenario.Apps {
		prio := 10 * (i + 1)
		switch a.Kind {
		case "monitor":
			m := apps.NewMonitor(a.PeriodTTI)
			rt.Sim.Master.Register(m, prio)
			rt.Monitor = m
		case "mobility":
			mm := apps.NewMobilityManager()
			mm.CommandTimeoutTTI = a.CommandTimeoutTTI
			mm.MinMarginDB = a.MinMarginDB
			if a.Policy == "load_balanced" {
				mm.Policy = apps.LoadBalanced{LoadWeight: a.LoadWeight}
			}
			rt.Sim.Master.Register(mm, prio)
			rt.Mobility = mm
			if a.RetuneAt > 0 {
				// Armed when the measured run starts: retune_at is an
				// offset from the end of the attach phase.
				rt.retunes = append(rt.retunes, &retuneDriver{mm: mm, decl: a})
			}
		case "eicic":
			if err := rt.wireEICIC(a, prio); err != nil {
				return err
			}
		case "ransharing":
			// Registered when the measured run starts: the plan's TTIs
			// are offsets from the end of the attach phase.
			rt.sharing = append(rt.sharing, a)
		}
	}
	return nil
}

// wireEICIC reproduces the §6.1 split of control declaratively: the
// agent-side VSFs of apps.InstallEICIC plus the coordinator app that
// re-grants unneeded ABS capacity.
func (rt *Runtime) wireEICIC(a AppDecl, prio int) error {
	macro := rt.nodeOf(a.MacroENB)
	if macro == nil || macro.Agent == nil {
		return fmt.Errorf("scenario: eicic macro eNodeB %d has no agent", a.MacroENB)
	}
	smalls := make([]*agent.Agent, len(a.SmallENBs))
	for i, id := range a.SmallENBs {
		small := rt.nodeOf(id)
		if small == nil || small.Agent == nil {
			return fmt.Errorf("scenario: eicic small eNodeB %d has no agent", id)
		}
		smalls[i] = small.Agent
	}
	if err := apps.InstallEICIC(macro.Agent, smalls, a.ABS, a.Optimized); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	coord := apps.NewEICIC(a.MacroENB, a.SmallENBs, a.ABS, a.Optimized)
	rt.Sim.Master.Register(coord, prio)
	rt.EICIC = coord
	return nil
}

// mix derives a deterministic sub-seed from (run seed, declared seed,
// index) with a SplitMix64-style avalanche, so adjacent indices land far
// apart in generator state space.
func mix(runSeed, declSeed, idx int64) int64 {
	return mix64(runSeed, declSeed, idx)
}

func mix64(a, b, c int64) int64 {
	z := uint64(a)*0x9E3779B97F4A7C15 + uint64(b)*0xBF58476D1CE4E5B9 + uint64(c) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}
