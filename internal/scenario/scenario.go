// Package scenario is the declarative workload layer of the platform: it
// turns a yamlite document — topology, UE population, traffic mix, apps,
// slicing shares and a fault script — into a fully wired sim.Sim with a
// master controller and northbound applications, runs it, and reduces the
// end state to a deterministic Summary plus a stable FNV-1a digest.
//
// The paper's pitch is programmability: one platform, many RAN control
// scenarios. Before this package every workload was a hand-coded Go main;
// with it a scenario is data. The digest is the regression currency: the
// TTI engine guarantees bit-for-bit identical worlds for every worker-pool
// size, so each scenario file ships with a golden digest and any
// behavioural drift in sim/sched/mobility/resilience code shows up as a
// digest mismatch in CI — no new Go test required.
//
// A document has up to eight sections besides name and description — run,
// topology, ues, master, apps, slicing, slices, faults — of which only run
// and topology are required; unknown keys are errors. Every knob of every
// section, with its constraint and default, is listed in the knob
// reference of scenarios/README.md, which a test generates from the field
// tables below.
//
// Where the runtime already has a struct for a section, the section
// decodes straight into it, seeded with the runtime's own defaults:
// master into controller.Options, netem blocks into transport.Netem,
// faults into sim.Fault, ransharing plans into apps.ShareChange and the
// broker half of slices into broker.Config. Those structs' times are
// absolute subframes at run time, but a document's are not: Faults[i].At
// and each ransharing plan change's At are offsets from the end of the
// attach phase, and Execute shifts copies of them by the subframe at
// which attach ended.
//
// The smallest useful document:
//
//	name: quickstart
//	run:
//	  ttis: 2000
//	topology:
//	  enbs:
//	    - id: 1
//	ues:
//	  - count: 2
//	    enb: 1
//	    imsi_base: 100
//	    channel:
//	      model: fixed
//	      cqi: 12
//	    traffic:
//	      - kind: cbr
//	        rate_kbps: 500
package scenario

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"flexran/internal/apps"
	"flexran/internal/apps/broker"
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/sim"
	"flexran/internal/slice"
	"flexran/internal/transport"
	"flexran/internal/yamlite"
)

// Defaults applied while parsing.
const (
	// DefaultAttachTTIs bounds the attach phase when run.attach_ttis is
	// absent.
	DefaultAttachTTIs = 2000
	// DefaultPingPongWindowTTI is the window within which a UE returning
	// to the eNodeB it just left counts as a ping-pong handover.
	DefaultPingPongWindowTTI = 1000
)

// RunSpec is the "run:" section.
type RunSpec struct {
	// TTIs is the measured run length after the attach phase.
	TTIs int
	// AttachTTIs bounds the attach phase (0 skips it entirely).
	AttachTTIs int
	// Seed is mixed into every derived per-UE seed.
	Seed int64
	// PingPongWindowTTI classifies return handovers as ping-pongs.
	PingPongWindowTTI int
	// NoFastForward disables the idle-cell fast-forward engine, forcing
	// every eNodeB to step every TTI. Digests are identical either way
	// (the fast-forward contract is bit-exactness); the knob exists for
	// A/B verification and for measuring the skip machinery's benefit.
	NoFastForward bool
}

// ENBDecl declares one eNodeB (or a template repeated Count times by the
// topology grid generator).
type ENBDecl struct {
	ID    lte.ENBID
	Agent bool
	Seed  int64
	// Cells is the number of default 10 MHz cells (ids 0..Cells-1).
	Cells int
	// X/Y/PowerDBm place a radio-map site per cell when HasSite.
	X, Y     float64
	PowerDBm float64
	HasSite  bool
	ToMaster transport.Netem
	ToAgent  transport.Netem
	// Policy is a raw policy-reconfiguration document applied to the
	// agent before the attach phase (e.g. rrc handover knobs).
	Policy *yamlite.Node
}

// PointDecl is a scenario-space position in meters.
type PointDecl struct{ X, Y float64 }

// PlacementDecl positions the UEs of a group.
type PlacementDecl struct {
	Kind string // "at", "line", "box"
	At   PointDecl
	From PointDecl
	To   PointDecl
	Min  PointDecl
	Max  PointDecl
	Seed int64
}

// MobilityDecl selects a motion model for a UE group.
type MobilityDecl struct {
	Model        string // "static", "waypoint", "random_waypoint"
	Path         []PointDecl
	SpeedMps     float64
	SpeedStepMps float64 // per-UE speed increment (spreads crossings)
	PingPong     bool
	Min, Max     PointDecl
	Seed         int64
}

// ChannelDecl selects the channel model of a UE group.
type ChannelDecl struct {
	Model string // "auto", "geo", "fixed", "fading", "squarewave", "interference_switched"
	CQI   int64  // fixed
	// fading
	Mean, Rho, Sigma float64
	Seed             int64
	// squarewave
	A, B          int64
	HalfPeriodTTI int64
	// interference_switched
	Clear, Hit     int64
	InterfererENB  lte.ENBID
	InterfererCell lte.CellID
}

// TrafficDecl is one component of a group's traffic mix.
type TrafficDecl struct {
	Kind        string // "cbr", "poisson", "onoff", "full_buffer"
	Share       float64
	RateKbps    float64
	MeanKbps    float64
	PacketBytes int
	OnTTI       int
	OffTTI      int
	StartTTI    int64
	StopTTI     int64
	Seed        int64
}

// UEGroup declares a homogeneous slice of the UE population.
type UEGroup struct {
	Count    int
	ENB      lte.ENBID
	AllENBs  bool // replicate the group on every eNodeB
	Cell     lte.CellID
	IMSIBase uint64
	Group    int
	Place    *PlacementDecl
	Mobility *MobilityDecl
	Channel  ChannelDecl
	DL       []TrafficDecl
	UL       []TrafficDecl
}

// AppDecl registers one northbound application.
type AppDecl struct {
	Kind string // "monitor", "mobility", "eicic", "ransharing"

	// monitor
	PeriodTTI int
	// mobility
	Policy            string // "strongest", "load_balanced"
	LoadWeight        float64
	MinMarginDB       float64
	CommandTimeoutTTI int
	// mobility runtime retune: at RetuneAt TTIs into the measured run the
	// target policy is swapped to RetunePolicy via the registry's Retune
	// path (0 = never retune).
	RetuneAt         int64
	RetunePolicy     string
	RetuneLoadWeight float64
	// ransharing: each change's At is an offset from the end of attach.
	ENB  lte.ENBID
	Plan []apps.ShareChange
	// eicic
	MacroENB  lte.ENBID
	MacroCell lte.CellID
	SmallENBs []lte.ENBID
	ABS       int
	Optimized bool
}

// SlicesDecl is the "slices:" section: declarative slice specs handed to
// the elastic slice broker (internal/apps/broker). The builder installs
// the agent-side slicing scheduler on every agent eNodeB — initial shares
// split weight-proportionally between the founding (arrive_at 0) specs —
// and Execute registers a broker armed at the end of the attach phase.
// The section is mutually exclusive with the static "slicing:" section.
type SlicesDecl struct {
	// Config is the broker's own configuration (elastic by default).
	broker.Config
	// WorkConserving and Scheduler configure the agent-side slicer.
	WorkConserving bool
	Scheduler      string // inner per-group scheduler: "rr" (default), "pf"
	// Specs is the declarative slice set.
	Specs []slice.Spec
}

// SliceDecl installs the slicing scheduler on one (or all) eNodeBs.
type SliceDecl struct {
	ENB            lte.ENBID // 0 = every agent eNodeB
	All            bool
	Shares         []float64
	WorkConserving bool
	Scheduler      string // inner per-group scheduler: "rr" (default), "pf"
}

// Scenario is a parsed, validated document. It is purely declarative:
// Build constructs fresh runtime state (generators, channels, apps) on
// every call, so one Scenario can be run many times — including at
// different worker counts — with identical results.
type Scenario struct {
	Name        string
	Description string
	Run         RunSpec
	ENBs        []ENBDecl
	UEs         []UEGroup
	// Master is nil for "master: none" (standalone eNodeBs).
	Master *controller.Options
	Apps   []AppDecl
	Slices []SliceDecl
	Broker *SlicesDecl
	// Faults is the fault script; each At is an offset from the end of
	// attach.
	Faults []sim.Fault
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(string(data))
}

// LoadNamed finds "<name>.yaml" in the repository's scenarios/ library,
// searching upward from the working directory so examples run from the
// repo root, their own directory, or a test's temp cwd.
func LoadNamed(name string) (*Scenario, error) {
	rel := filepath.Join("scenarios", name+".yaml")
	for _, up := range []string{".", "..", filepath.Join("..", "..")} {
		path := filepath.Join(up, rel)
		if _, err := os.Stat(path); err == nil {
			return Load(path)
		}
	}
	return nil, fmt.Errorf("scenario: %s not found (run from the repository tree)", rel)
}

// Limits on what one document can make the parser and the builder
// allocate. They are constants, not knobs: scale-4096enb, the largest
// world in the library, sits 16x (eNodeBs) and 40x (UEs) below them.
const (
	maxENBs        = 65536
	maxUEs         = 4 << 20
	maxCellsPerENB = 256
	// maxRings is the largest honeycomb whose 1+3R(R+1) sites fit maxENBs.
	maxRings = 147
	// maxRunSeconds keeps run.seconds * TTIsPerSecond inside a 32-bit int.
	maxRunSeconds = math.MaxInt32 / lte.TTIsPerSecond
)

// Parse parses and validates a scenario document.
func Parse(doc string) (*Scenario, error) {
	root, err := yamlite.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc := new(Scenario)
	if err := decodeMap(root, "", scenarioTable(sc)); err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Sections. Each xTable function gives its (zero) destination the
// section's defaults and returns the section's field table; each parseX
// function decodes a node against that table and then applies the checks
// that span several keys. scenarios/README.md carries a knob reference
// generated from these tables.

func scenarioTable(sc *Scenario) []field {
	*sc = Scenario{Master: new(controller.Options)}
	master := masterTable(sc.Master)
	return []field{
		{"name", str(&sc.Name)},
		{"description", str(&sc.Description)},
		{"run", section(runTable(&sc.Run))},
		{"topology", section(topologyTable(&sc.ENBs))},
		{"ues", list(&sc.UEs, parseUEGroup)},
		{"master", value{`a map or "none"`, nil, func(n *yamlite.Node, where string) error {
			switch {
			case n.Kind == yamlite.KindScalar && n.Str() == "none":
				sc.Master = nil
				return nil
			case n.Kind != yamlite.KindMap:
				return mustBe(noun(where), `a map or "none"`)
			}
			return decodeMap(n, where, master)
		}}},
		{"apps", list(&sc.Apps, parseApp)},
		{"slicing", list(&sc.Slices, parseSlicing)},
		{"slices", sub(parseSlices, intoPtr(&sc.Broker))},
		{"faults", list(&sc.Faults, parseFault)},
	}
}

func runTable(r *RunSpec) []field {
	*r = RunSpec{AttachTTIs: DefaultAttachTTIs, PingPongWindowTTI: DefaultPingPongWindowTTI}
	var seconds float64
	return []field{
		{"ttis", posInt(&r.TTIs)},
		{"seconds", after(posNum(&seconds), func(_ *yamlite.Node, where string) error {
			if seconds > maxRunSeconds {
				return fmt.Errorf("scenario: %s: %g exceeds the limit of %d seconds", where, seconds, maxRunSeconds)
			}
			r.TTIs = int(seconds * lte.TTIsPerSecond)
			return nil
		})},
		{"attach_ttis", nonNegInt(&r.AttachTTIs)},
		{"seed", anyInt(&r.Seed)},
		{"pingpong_window_tti", posInt(&r.PingPongWindowTTI)},
		{"no_fast_forward", boolean(&r.NoFastForward)},
	}
}

func topologyTable(enbs *[]ENBDecl) []field {
	generated := func(more []ENBDecl) { *enbs = append(*enbs, more...) }
	return []field{
		{"grid", sub(parseGrid, generated)},
		{"honeycomb", sub(parseHoneycomb, generated)},
		{"enbs", list(enbs, parseENB)},
	}
}

// lattice is the parameter set of the two topology generators.
type lattice struct {
	enbs, cols       int // grid: cols 0 = ceil(sqrt(enbs))
	rings            int // honeycomb, when byRings
	byRings          bool
	sectors          int
	spacing, powerDB float64
	seedBase         int64
}

// site returns generated eNodeB i of the lattice at (x, y).
func (l *lattice) site(i int, x, y float64) ENBDecl {
	return ENBDecl{
		ID: lte.ENBID(i + 1), Agent: true, Seed: l.seedBase + int64(i), Cells: l.sectors,
		X: x, Y: y, PowerDBm: l.powerDB, HasSite: true,
	}
}

func gridTable(l *lattice) []field {
	*l = lattice{sectors: 1, spacing: 500, powerDB: 43, seedBase: 1}
	return []field{
		{"enbs", upTo(posInt(&l.enbs), maxENBs, "eNodeBs")},
		{"cols", posInt(&l.cols)},
		{"spacing_m", posNum(&l.spacing)},
		{"power_dbm", number(&l.powerDB)},
		{"seed_base", anyInt(&l.seedBase)},
	}
}

// parseGrid expands "topology.grid" into a row-major lattice of
// single-cell agent eNodeBs with ids 1..N, each carrying one site.
func parseGrid(n *yamlite.Node, where string) ([]ENBDecl, error) {
	var l lattice
	if err := decodeMap(n, where, gridTable(&l)); err != nil {
		return nil, err
	}
	if l.enbs == 0 {
		return nil, fmt.Errorf("scenario: %s.enbs is required", where)
	}
	if l.cols == 0 {
		l.cols = int(math.Ceil(math.Sqrt(float64(l.enbs))))
	}
	out := make([]ENBDecl, l.enbs)
	for i := range out {
		out[i] = l.site(i, float64(i%l.cols)*l.spacing, float64(i/l.cols)*l.spacing)
	}
	return out, nil
}

func honeycombTable(l *lattice) []field {
	*l = lattice{sectors: 1, spacing: 500, powerDB: 43, seedBase: 1}
	return []field{
		{"enbs", upTo(posInt(&l.enbs), maxENBs, "eNodeBs")},
		{"rings", then(upTo(nonNegInt(&l.rings), maxRings, "rings"), func() { l.byRings = true })},
		{"pitch_m", posNum(&l.spacing)},
		{"sectors", upTo(posInt(&l.sectors), maxCellsPerENB, "cells per eNodeB")},
		{"power_dbm", number(&l.powerDB)},
		{"seed_base", anyInt(&l.seedBase)},
	}
}

// parseHoneycomb expands "topology.honeycomb" into a hexagonal cellular
// deployment: sites on a triangular lattice spiralling outward from a
// centre eNodeB, the classic honeycomb layout of LTE planning studies.
// Exactly one of `enbs` (site count, spiral truncated mid-ring) or
// `rings` (complete rings R, yielding 1+3R(R+1) sites) selects the size.
func parseHoneycomb(n *yamlite.Node, where string) ([]ENBDecl, error) {
	var l lattice
	if err := decodeMap(n, where, honeycombTable(&l)); err != nil {
		return nil, err
	}
	if (l.enbs == 0) != l.byRings {
		return nil, fmt.Errorf("scenario: %s needs exactly one of enbs or rings", where)
	}
	if l.byRings {
		l.enbs = 1 + 3*l.rings*(l.rings+1)
	}
	out := make([]ENBDecl, l.enbs)
	for i, ax := range hexSpiral(l.enbs) {
		// Axial-to-plane: unit hexagonal lattice scaled by the site pitch.
		out[i] = l.site(i, l.spacing*(float64(ax.q)+float64(ax.r)/2), l.spacing*float64(ax.r)*math.Sqrt(3)/2)
	}
	return out, nil
}

// hexAxial is a cell of the hexagonal lattice in axial coordinates.
type hexAxial struct{ q, r int }

// hexSpiral enumerates n lattice cells spiralling outward from the
// origin: the centre, then ring 1, ring 2, ... Each ring k starts at
// axial (k, -k) and walks its six sides counter-clockwise, k steps per
// side, emitting each cell before stepping. The order is a pure function
// of n, so site ids (and everything seeded from them) are deterministic.
func hexSpiral(n int) []hexAxial {
	dirs := [6]hexAxial{{0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1}, {1, 0}}
	out := make([]hexAxial, 0, n)
	out = append(out, hexAxial{0, 0})
	for k := 1; len(out) < n; k++ {
		cur := hexAxial{k, -k}
		for _, d := range dirs {
			for step := 0; step < k; step++ {
				if len(out) == n {
					return out
				}
				out = append(out, cur)
				cur = hexAxial{cur.q + d.q, cur.r + d.r}
			}
		}
	}
	return out[:n]
}

func enbTable(d *ENBDecl) []field {
	*d = ENBDecl{Agent: true, Cells: 1}
	return []field{
		{"id", posInt(&d.ID)},
		{"agent", boolean(&d.Agent)},
		{"seed", anyInt(&d.Seed)},
		{"cells", upTo(posInt(&d.Cells), maxCellsPerENB, "cells per eNodeB")},
		{"x", number(&d.X)},
		{"y", number(&d.Y)},
		{"power_dbm", then(number(&d.PowerDBm), func() { d.HasSite = true })},
		{"to_master", sub(parseNetem, into(&d.ToMaster))},
		{"to_agent", sub(parseNetem, into(&d.ToAgent))},
		{"policy", value{"a map (raw agent policy document)", nil, func(n *yamlite.Node, where string) error {
			if n.Kind != yamlite.KindMap {
				return mustBe(where, "a map")
			}
			d.Policy = n
			return nil
		}}},
	}
}

func parseENB(n *yamlite.Node, where string) (d ENBDecl, err error) {
	if err = decodeMap(n, where, enbTable(&d)); err == nil && d.ID == 0 {
		err = fmt.Errorf("scenario: %s.id is required", where)
	}
	return d, err
}

func netemTable(d *transport.Netem) []field {
	return []field{
		{"delay_tti", nonNegInt(&d.OneWayTTI)},
		{"jitter_tti", nonNegInt(&d.JitterTTI)},
		{"loss", prob(&d.LossProb)},
		{"seed", anyInt(&d.Seed)},
		{"burst_loss", prob(&d.BurstLossProb)},
		{"burst_enter", prob(&d.BurstEnterProb)},
		{"burst_exit", prob(&d.BurstExitProb)},
		{"dup", prob(&d.DupProb)},
		{"reorder", prob(&d.ReorderProb)},
		{"reorder_tti", nonNegInt(&d.ReorderTTI)},
		{"corrupt", prob(&d.CorruptProb)},
		{"stall_tti", nonNegInt(&d.StallTTI)},
	}
}

func parseNetem(n *yamlite.Node, where string) (d transport.Netem, err error) {
	err = decodeMap(n, where, netemTable(&d))
	return d, err
}

func ueGroupTable(g *UEGroup) []field {
	*g = UEGroup{Count: 1}
	return []field{
		{"count", posInt(&g.Count)},
		{"enb", enbOrAll(&g.ENB, &g.AllENBs)},
		{"cell", nonNegInt(&g.Cell)},
		{"imsi_base", posInt(&g.IMSIBase)},
		{"group", nonNegInt(&g.Group)},
		{"placement", sub(parsePlacement, intoPtr(&g.Place))},
		{"mobility", sub(parseMobility, intoPtr(&g.Mobility))},
		{"channel", sub(parseChannel, into(&g.Channel))},
		{"traffic", trafficMix(&g.DL)},
		{"uplink", trafficMix(&g.UL)},
	}
}

func parseUEGroup(n *yamlite.Node, where string) (g UEGroup, err error) {
	if err = decodeMap(n, where, ueGroupTable(&g)); err != nil {
		return g, err
	}
	if g.IMSIBase == 0 {
		return g, fmt.Errorf("scenario: %s.imsi_base is required", where)
	}
	if g.ENB == 0 && !g.AllENBs {
		return g, fmt.Errorf("scenario: %s.enb is required", where)
	}
	return g, nil
}

func placementTable(p *PlacementDecl) []field {
	// Whichever corner or endpoint is written last names the shape.
	corner := func(kind string, dst *PointDecl) value {
		return then(point(dst), func() { p.Kind = kind })
	}
	return []field{
		{"at", corner("at", &p.At)},
		{"from", corner("line", &p.From)},
		{"to", corner("line", &p.To)},
		{"min", corner("box", &p.Min)},
		{"max", corner("box", &p.Max)},
		{"seed", anyInt(&p.Seed)},
	}
}

func parsePlacement(n *yamlite.Node, where string) (p PlacementDecl, err error) {
	if err = decodeMap(n, where, placementTable(&p)); err == nil && p.Kind == "" {
		err = fmt.Errorf("scenario: %s needs at/from+to/min+max", where)
	}
	return p, err
}

func mobilityTable(m *MobilityDecl) []field {
	return []field{
		{"model", str(&m.Model)},
		{"path", points(&m.Path)},
		{"speed_mps", nonNegNum(&m.SpeedMps)},
		{"speed_step_mps", number(&m.SpeedStepMps)},
		{"ping_pong", boolean(&m.PingPong)},
		{"min", point(&m.Min)},
		{"max", point(&m.Max)},
		{"seed", anyInt(&m.Seed)},
	}
}

func parseMobility(n *yamlite.Node, where string) (m MobilityDecl, err error) {
	if err = decodeMap(n, where, mobilityTable(&m)); err != nil {
		return m, err
	}
	switch m.Model {
	case "static", "waypoint", "random_waypoint":
	case "":
		return m, fmt.Errorf("scenario: %s.model is required", where)
	default:
		return m, fmt.Errorf("scenario: %s.model: unknown mobility model %q", where, m.Model)
	}
	if m.Model == "waypoint" && len(m.Path) < 2 {
		return m, fmt.Errorf("scenario: %s.path needs at least 2 waypoints", where)
	}
	return m, nil
}

func channelTable(c *ChannelDecl) []field {
	*c = ChannelDecl{Model: "auto", Rho: 0.99, Sigma: 1.5}
	return []field{
		{"model", str(&c.Model)},
		{"cqi", cqi(&c.CQI)},
		{"mean", number(&c.Mean)},
		{"rho", floatIn(&c.Rho, "in [0, 1)", func(f float64) bool { return f >= 0 && f < 1 })},
		{"sigma", nonNegNum(&c.Sigma)},
		{"seed", anyInt(&c.Seed)},
		{"a", cqi(&c.A)},
		{"b", cqi(&c.B)},
		{"half_period_tti", posInt(&c.HalfPeriodTTI)},
		{"clear", cqi(&c.Clear)},
		{"hit", cqi(&c.Hit)},
		{"interferer_enb", posInt(&c.InterfererENB)},
		{"interferer_cell", nonNegInt(&c.InterfererCell)},
	}
}

func parseChannel(n *yamlite.Node, where string) (c ChannelDecl, err error) {
	if err = decodeMap(n, where, channelTable(&c)); err != nil {
		return c, err
	}
	switch c.Model {
	case "auto", "geo":
	case "fixed":
		if c.CQI == 0 {
			return c, fmt.Errorf("scenario: %s.cqi is required for the fixed model", where)
		}
	case "fading":
		if c.Mean == 0 {
			return c, fmt.Errorf("scenario: %s.mean is required for the fading model", where)
		}
	case "squarewave":
		if c.A == 0 || c.B == 0 || c.HalfPeriodTTI == 0 {
			return c, fmt.Errorf("scenario: %s needs a, b and half_period_tti for the squarewave model", where)
		}
	case "interference_switched":
		if c.Clear == 0 || c.Hit == 0 || c.InterfererENB == 0 {
			return c, fmt.Errorf("scenario: %s needs clear, hit and interferer_enb for the interference_switched model", where)
		}
	default:
		return c, fmt.Errorf("scenario: %s.model: unknown channel model %q", where, c.Model)
	}
	return c, nil
}

// trafficMix decodes a group's traffic mix: a non-empty sequence of
// components whose shares sum to 1 (a lone component may omit its share).
func trafficMix(dst *[]TrafficDecl) value {
	return after(list(dst, parseTraffic), func(_ *yamlite.Node, where string) error {
		mix := *dst
		if len(mix) == 0 {
			return fmt.Errorf("scenario: %s must not be empty", where)
		}
		if len(mix) == 1 && mix[0].Share == 0 {
			mix[0].Share = 1
		}
		sum := 0.0
		for _, d := range mix {
			sum += d.Share
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("scenario: %s: shares sum to %.3f, want 1.0", where, sum)
		}
		return nil
	})
}

func trafficTable(d *TrafficDecl) []field {
	return []field{
		{"kind", str(&d.Kind)},
		{"share", fraction(&d.Share)},
		{"rate_kbps", posNum(&d.RateKbps)},
		{"mean_kbps", posNum(&d.MeanKbps)},
		{"packet_bytes", posInt(&d.PacketBytes)},
		{"on_tti", posInt(&d.OnTTI)},
		{"off_tti", posInt(&d.OffTTI)},
		{"start_tti", nonNegInt(&d.StartTTI)},
		{"stop_tti", nonNegInt(&d.StopTTI)},
		{"seed", anyInt(&d.Seed)},
	}
}

func parseTraffic(n *yamlite.Node, where string) (d TrafficDecl, err error) {
	if err = decodeMap(n, where, trafficTable(&d)); err != nil {
		return d, err
	}
	switch d.Kind {
	case "cbr":
		if d.RateKbps == 0 {
			return d, fmt.Errorf("scenario: %s.rate_kbps is required for cbr", where)
		}
	case "poisson":
		if d.MeanKbps == 0 {
			return d, fmt.Errorf("scenario: %s.mean_kbps is required for poisson", where)
		}
	case "onoff":
		if d.RateKbps == 0 || d.OnTTI == 0 || d.OffTTI == 0 {
			return d, fmt.Errorf("scenario: %s needs rate_kbps, on_tti and off_tti for onoff", where)
		}
	case "full_buffer":
	case "":
		return d, fmt.Errorf("scenario: %s.kind is required", where)
	default:
		return d, fmt.Errorf("scenario: %s: unknown traffic kind %q", where, d.Kind)
	}
	return d, nil
}

func masterTable(m *controller.Options) []field {
	*m = controller.DefaultOptions()
	return []field{
		{"stats_period_tti", nonNegInt(&m.StatsPeriodTTI)},
		{"sync_period_tti", nonNegInt(&m.SyncPeriodTTI)},
		{"echo_period_tti", nonNegInt(&m.EchoPeriodTTI)},
		{"echo_miss_budget", nonNegInt(&m.EchoMissBudget)},
		{"no_resync", boolean(&m.NoResync)},
		{"health_period_tti", nonNegInt(&m.HealthPeriodTTI)},
		{"health_suspect_tti", nonNegInt(&m.HealthSuspectTTI)},
		{"health_degraded_tti", nonNegInt(&m.HealthDegradedTTI)},
		{"health_recover_tti", nonNegInt(&m.HealthRecoverTTI)},
		{"cmd_retry_tti", nonNegInt(&m.CmdRetryTTI)},
		{"cmd_retry_budget", nonNegInt(&m.CmdRetryBudget)},
	}
}

func appTable(a *AppDecl) []field {
	*a = AppDecl{PeriodTTI: 100, Policy: "strongest", CommandTimeoutTTI: 200, ABS: 4}
	return []field{
		{"kind", str(&a.Kind)},
		{"period_tti", posInt(&a.PeriodTTI)},
		{"policy", oneOf(&a.Policy, "target policy", "strongest", "load_balanced")},
		{"load_weight", nonNegNum(&a.LoadWeight)},
		{"min_margin_db", nonNegNum(&a.MinMarginDB)},
		{"command_timeout_tti", posInt(&a.CommandTimeoutTTI)},
		{"retune_at", posInt(&a.RetuneAt)},
		{"retune_policy", oneOf(&a.RetunePolicy, "target policy", "strongest", "load_balanced")},
		{"retune_load_weight", nonNegNum(&a.RetuneLoadWeight)},
		{"enb", posInt(&a.ENB)},
		{"plan", list(&a.Plan, parseShareChange)},
		{"macro_enb", posInt(&a.MacroENB)},
		{"macro_cell", nonNegInt(&a.MacroCell)},
		{"small_enbs", enbIDs(&a.SmallENBs)},
		{"abs", intIn(&a.ABS, 1, 9, "in [1, 9]")},
		{"optimized", boolean(&a.Optimized)},
	}
}

func parseApp(n *yamlite.Node, where string) (a AppDecl, err error) {
	if err = decodeMap(n, where, appTable(&a)); err != nil {
		return a, err
	}
	if a.Kind != "mobility" && (a.RetuneAt > 0 || a.RetunePolicy != "") {
		return a, fmt.Errorf("scenario: %s: retune knobs apply to mobility apps only", where)
	}
	if a.RetunePolicy != "" && a.RetuneAt == 0 {
		return a, fmt.Errorf("scenario: %s.retune_at is required with retune_policy", where)
	}
	if a.RetuneAt > 0 && a.RetunePolicy == "" {
		return a, fmt.Errorf("scenario: %s.retune_policy is required with retune_at", where)
	}
	switch a.Kind {
	case "monitor", "mobility":
	case "ransharing":
		if a.ENB == 0 {
			return a, fmt.Errorf("scenario: %s.enb is required for ransharing", where)
		}
	case "eicic":
		if a.MacroENB == 0 || len(a.SmallENBs) == 0 {
			return a, fmt.Errorf("scenario: %s needs macro_enb and small_enbs for eicic", where)
		}
	case "":
		return a, fmt.Errorf("scenario: %s.kind is required", where)
	default:
		return a, fmt.Errorf("scenario: %s: unknown app kind %q", where, a.Kind)
	}
	return a, nil
}

func shareChangeTable(ch *apps.ShareChange) []field {
	return []field{
		{"at", nonNegInt(&ch.At)},
		{"shares", floats(&ch.Shares)},
	}
}

func parseShareChange(n *yamlite.Node, where string) (ch apps.ShareChange, err error) {
	if err = decodeMap(n, where, shareChangeTable(&ch)); err == nil && ch.Shares == nil {
		err = fmt.Errorf("scenario: %s.shares is required", where)
	}
	return ch, err
}

func slicingTable(d *SliceDecl) []field {
	*d = SliceDecl{Scheduler: "rr"}
	return []field{
		{"enb", enbOrAll(&d.ENB, &d.All)},
		{"shares", floats(&d.Shares)},
		{"work_conserving", boolean(&d.WorkConserving)},
		{"scheduler", oneOf(&d.Scheduler, "scheduler", "rr", "pf")},
	}
}

func parseSlicing(n *yamlite.Node, where string) (d SliceDecl, err error) {
	if err = decodeMap(n, where, slicingTable(&d)); err != nil {
		return d, err
	}
	if d.Shares == nil {
		return d, fmt.Errorf("scenario: %s.shares is required", where)
	}
	if d.ENB == 0 && !d.All {
		return d, fmt.Errorf("scenario: %s.enb is required (an id or \"all\")", where)
	}
	sum := 0.0
	for _, f := range d.Shares {
		if f < 0 || f > 1 {
			return d, fmt.Errorf("scenario: %s.shares must hold fractions in [0, 1]", where)
		}
		sum += f
	}
	if sum > 1+1e-9 {
		return d, fmt.Errorf("scenario: %s.shares sum to %.3f, want <= 1.0", where, sum)
	}
	return d, nil
}

func slicesTable(d *SlicesDecl) []field {
	*d = SlicesDecl{Config: broker.Config{Elastic: true}, Scheduler: "rr"}
	return []field{
		{"epoch_ttis", posInt(&d.EpochTTI)},
		{"elastic", boolean(&d.Elastic)},
		{"work_conserving", boolean(&d.WorkConserving)},
		{"scheduler", oneOf(&d.Scheduler, "scheduler", "rr", "pf")},
		{"hysteresis_epochs", posInt(&d.HysteresisEpochs)},
		{"degrade_factor", fraction(&d.DegradeFactor)},
		{"specs", list(&d.Specs, parseSliceSpec)},
	}
}

func parseSlices(n *yamlite.Node, where string) (d SlicesDecl, err error) {
	if err = decodeMap(n, where, slicesTable(&d)); err == nil && len(d.Specs) == 0 {
		err = fmt.Errorf("scenario: %s.specs must declare at least one slice", where)
	}
	return d, err
}

func sliceSpecTable(sp *slice.Spec) []field {
	return []field{
		{"name", str(&sp.Name)},
		{"group", nonNegInt(&sp.Group)},
		{"weight", nonNegNum(&sp.Weight)},
		{"min_throughput_kbps", posNum(&sp.SLA.MinThroughputKbps)},
		{"max_queue_ms", posNum(&sp.SLA.MaxQueueMs)},
		{"arrive_at", nonNegInt(&sp.ArriveAt)},
		{"admit_above", nonNegNum(&sp.Admission.AdmitAbove)},
		{"reject_below", nonNegNum(&sp.Admission.RejectBelow)},
		{"hysteresis_epochs", posInt(&sp.HysteresisEpochs)},
	}
}

func parseSliceSpec(n *yamlite.Node, where string) (sp slice.Spec, err error) {
	if err = decodeMap(n, where, sliceSpecTable(&sp)); err != nil {
		return sp, err
	}
	if err := sp.Validate(); err != nil {
		return sp, fmt.Errorf("scenario: %s: %v", where, err)
	}
	return sp, nil
}

func faultTable(d *sim.Fault) []field {
	// The kinds are spelled as sim.FaultKind's String spells them: every
	// kind from 0 up to the first it calls "unknown".
	var names []string
	for k := sim.FaultKind(0); k.String() != "unknown"; k++ {
		names = append(names, k.String())
	}
	var name string
	kind := then(oneOf(&name, "fault kind", names...), func() {
		d.Kind = sim.FaultKind(slices.Index(names, name))
	})
	// An unknown kind is reported under the fault, not under its kind key.
	underKey := kind.decode
	kind.decode = func(n *yamlite.Node, where string) error {
		return underKey(n, strings.TrimSuffix(where, ".kind"))
	}
	return []field{
		{"at", nonNegInt(&d.At)},
		{"kind", kind},
		{"enb", posInt(&d.ENB)},
		{"to_master", sub(parseNetem, intoPtr(&d.ToMaster))},
		{"to_agent", sub(parseNetem, intoPtr(&d.ToAgent))},
	}
}

func parseFault(n *yamlite.Node, where string) (d sim.Fault, err error) {
	if err = decodeMap(n, where, faultTable(&d)); err != nil {
		return d, err
	}
	// The zero FaultKind is link_cut, so a missing kind shows only in the
	// document.
	if n.Get("kind") == nil {
		return d, fmt.Errorf("scenario: %s.kind is required", where)
	}
	if d.ENB == 0 {
		return d, fmt.Errorf("scenario: %s.enb is required", where)
	}
	return d, nil
}

// Cross-section validation.

func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if sc.Run.TTIs == 0 {
		return fmt.Errorf("scenario: run.ttis is required")
	}
	if len(sc.ENBs) == 0 {
		return fmt.Errorf("scenario: topology declares no eNodeBs")
	}
	if len(sc.ENBs) > maxENBs {
		return fmt.Errorf("scenario: topology declares %d eNodeBs, the limit is %d", len(sc.ENBs), maxENBs)
	}
	byID := map[lte.ENBID]*ENBDecl{}
	all := make([]*ENBDecl, len(sc.ENBs))
	for i := range sc.ENBs {
		d := &sc.ENBs[i]
		if byID[d.ID] != nil {
			return fmt.Errorf("scenario: duplicate eNodeB id %d", d.ID)
		}
		byID[d.ID], all[i] = d, d
	}
	hasMap := slices.ContainsFunc(sc.ENBs, func(d ENBDecl) bool { return d.HasSite })
	// Each group owns the contiguous IMSI range [lo, hi); no two may overlap.
	type imsiRange struct{ lo, hi uint64 }
	var imsis []imsiRange
	var ues int64
	for i := range sc.UEs {
		g := &sc.UEs[i]
		where := fmt.Sprintf("ues[%d]", i)
		targets := all
		if !g.AllENBs {
			if targets = []*ENBDecl{byID[g.ENB]}; targets[0] == nil {
				return fmt.Errorf("scenario: %s.enb: unknown eNodeB %d", where, g.ENB)
			}
		}
		for _, t := range targets {
			if int(g.Cell) >= t.Cells {
				return fmt.Errorf("scenario: %s.cell: eNodeB %d has no cell %d", where, t.ID, g.Cell)
			}
		}
		// Clamp before multiplying so a hostile count cannot overflow.
		n := min(int64(g.Count), maxUEs+1)
		if g.AllENBs {
			n *= int64(len(sc.ENBs))
		}
		if ues += n; ues > maxUEs {
			return fmt.Errorf("scenario: %s.count: the document declares more than the limit of %d UEs", where, maxUEs)
		}
		own := imsiRange{g.IMSIBase, g.IMSIBase + uint64(n)}
		first := own.hi // lowest IMSI of this group inside an earlier one
		for _, r := range imsis {
			if at := max(own.lo, r.lo); at < min(first, r.hi) {
				first = at
			}
		}
		if first < own.hi {
			return fmt.Errorf("scenario: %s: IMSI %d collides with another group", where, first)
		}
		imsis = append(imsis, own)
		// Resolve "auto" the same way the builder will: geo with a radio
		// map, fixed without one — so every geo-channel constraint below
		// covers both spellings.
		model := g.Channel.Model
		if model == "auto" || model == "" {
			if hasMap {
				model = "geo"
			} else {
				model = "fixed"
			}
		}
		switch model {
		case "geo":
			if !hasMap {
				return fmt.Errorf("scenario: %s: the geo channel model needs radio-map sites (power_dbm on eNodeBs)", where)
			}
			// A siteless serving eNodeB yields CQI 0 forever — the UE
			// would silently never attach.
			for _, t := range targets {
				if !t.HasSite {
					return fmt.Errorf("scenario: %s: eNodeB %d has no radio-map site for the geo channel", where, t.ID)
				}
			}
			if g.Mobility == nil && g.Place == nil {
				return fmt.Errorf("scenario: %s needs a placement or mobility model for the geo channel", where)
			}
		case "interference_switched":
			itf := byID[g.Channel.InterfererENB]
			if itf == nil {
				return fmt.Errorf("scenario: %s.channel.interferer_enb: unknown eNodeB %d", where, g.Channel.InterfererENB)
			}
			if int(g.Channel.InterfererCell) >= itf.Cells {
				return fmt.Errorf("scenario: %s.channel.interferer_cell: eNodeB %d has no cell %d", where, g.Channel.InterfererENB, g.Channel.InterfererCell)
			}
		}
		if g.Mobility != nil && g.Mobility.Model != "static" && model == "fixed" {
			return fmt.Errorf("scenario: %s: a moving UE needs a geo channel, not %q", where, model)
		}
		if len(g.DL) == 0 && len(g.UL) == 0 {
			return fmt.Errorf("scenario: %s declares no traffic", where)
		}
	}
	for i, a := range sc.Apps {
		where := fmt.Sprintf("apps[%d]", i)
		if sc.Master == nil {
			return fmt.Errorf("scenario: %s: apps need a master (remove \"master: none\")", where)
		}
		switch a.Kind {
		case "ransharing":
			if byID[a.ENB] == nil {
				return fmt.Errorf("scenario: %s.enb: unknown eNodeB %d", where, a.ENB)
			}
		case "eicic":
			if byID[a.MacroENB] == nil {
				return fmt.Errorf("scenario: %s.macro_enb: unknown eNodeB %d", where, a.MacroENB)
			}
			for _, id := range a.SmallENBs {
				if byID[id] == nil {
					return fmt.Errorf("scenario: %s.small_enbs: unknown eNodeB %d", where, id)
				}
			}
		}
	}
	for i, d := range sc.Slices {
		where := fmt.Sprintf("slicing[%d]", i)
		if !d.All {
			t := byID[d.ENB]
			if t == nil {
				return fmt.Errorf("scenario: %s.enb: unknown eNodeB %d", where, d.ENB)
			}
			if !t.Agent {
				return fmt.Errorf("scenario: %s: eNodeB %d has no agent to slice", where, d.ENB)
			}
		}
	}
	if b := sc.Broker; b != nil {
		if sc.Master == nil {
			return fmt.Errorf("scenario: slices need a master (remove \"master: none\")")
		}
		if len(sc.Slices) > 0 {
			return fmt.Errorf("scenario: slices and slicing sections are mutually exclusive (the broker owns the slicer)")
		}
		if !slices.ContainsFunc(sc.ENBs, func(d ENBDecl) bool { return d.Agent }) {
			return fmt.Errorf("scenario: slices need at least one agent eNodeB")
		}
		names := map[string]bool{}
		groups := map[int]string{}
		for i, sp := range b.Specs {
			where := fmt.Sprintf("slices.specs[%d]", i)
			if names[sp.Name] {
				return fmt.Errorf("scenario: %s: duplicate slice name %q", where, sp.Name)
			}
			names[sp.Name] = true
			if other, ok := groups[sp.Group]; ok {
				return fmt.Errorf("scenario: %s: slices %q and %q share group %d", where, other, sp.Name, sp.Group)
			}
			groups[sp.Group] = sp.Name
			if sp.ArriveAt >= int64(sc.Run.TTIs) {
				return fmt.Errorf("scenario: %s: arrive_at TTI %d beyond run length %d", where, sp.ArriveAt, sc.Run.TTIs)
			}
		}
	}
	stalled := map[lte.ENBID]bool{}
	for i, f := range sc.Faults {
		where := fmt.Sprintf("faults[%d]", i)
		if sc.Master == nil {
			return fmt.Errorf("scenario: %s: faults need a master (remove \"master: none\")", where)
		}
		t := byID[f.ENB]
		if t == nil {
			return fmt.Errorf("scenario: %s.enb: unknown eNodeB %d", where, f.ENB)
		}
		if !t.Agent {
			return fmt.Errorf("scenario: %s: eNodeB %d has no agent to fault", where, f.ENB)
		}
		if f.At >= lte.Subframe(sc.Run.TTIs) {
			return fmt.Errorf("scenario: %s: at TTI %d beyond run length %d", where, f.At, sc.Run.TTIs)
		}
		switch f.Kind {
		case sim.FaultNetemSet:
			if f.ToMaster == nil && f.ToAgent == nil {
				return fmt.Errorf("scenario: %s: netem_set needs a to_master or to_agent direction", where)
			}
		case sim.FaultAgentStall:
			stalled[f.ENB] = true
		case sim.FaultAgentResume:
			if !stalled[f.ENB] {
				return fmt.Errorf("scenario: %s: agent_resume for eNodeB %d without a preceding agent_stall", where, f.ENB)
			}
			stalled[f.ENB] = false
		case sim.FaultAgentRestart:
			stalled[f.ENB] = false
		}
	}
	// eNodeBs must be declared in a stable id order for deterministic
	// engine sharding regardless of map iteration anywhere upstream.
	slices.SortStableFunc(sc.ENBs, func(a, b ENBDecl) int { return cmp.Compare(a.ID, b.ID) })
	return nil
}
