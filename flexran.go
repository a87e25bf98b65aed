// Package flexran is the public API of the FlexRAN reproduction: a
// software-defined radio access network (SD-RAN) platform with a clean
// control/data-plane separation, reproducing "FlexRAN: A Flexible and
// Programmable Platform for Software-Defined Radio Access Networks"
// (Foukas et al., CoNEXT 2016) in pure Go.
//
// The platform has two halves, mirroring the paper's architecture:
//
//   - The FlexRAN control plane: a Master controller hosting RAN
//     control/management applications over a northbound API, connected to
//     per-eNodeB Agents through the FlexRAN protocol. Agents execute
//     Virtual Subsystem Functions (VSFs) for time-critical operations and
//     support runtime control delegation: VSF updation (pushing compiled
//     scheduler bytecode over the wire) and policy reconfiguration
//     (YAML-subset documents selecting VSF behaviors and parameters).
//
//   - The data-plane substrate: a simulated LTE eNodeB (TTI-accurate MAC
//     with HARQ, RLC queues, attach signaling), emulated UEs with traffic
//     generators and channel models, and a minimal EPC — the stand-ins
//     for OpenAirInterface, COTS UEs and openair-cn.
//
// Quick start (virtual time, one eNodeB, one saturated UE):
//
//	opts := flexran.DefaultMasterOptions()
//	s := flexran.MustNewSim(flexran.SimConfig{Master: &opts},
//	    flexran.ENBSpec{ID: 1, Agent: true, UEs: []flexran.UESpec{{
//	        IMSI: 1, Channel: flexran.FixedChannel(15),
//	        DL: flexran.NewFullBuffer(),
//	    }}})
//	s.WaitAttached(1000)
//	s.RunSeconds(2)
//
// The TTI engine is serial by default. SimConfig.Workers > 1 opts into a
// worker pool that partitions every phase of a TTI across eNodeBs with
// results bit-for-bit identical to the serial engine; on 2 vCPUs it
// measured slower than the serial engine on every world tried, up to
// 4,096 eNodeBs.
//
// For wall-clock deployments over TCP, see ServeMaster and RunAgentLoop,
// which steps a Node built by NewNode from the same ENBSpec.
// The experiments regenerating every table and figure of the paper live in
// internal/experiments and are runnable via cmd/flexran-exp.
package flexran

import (
	"flexran/internal/agent"
	"flexran/internal/apps"
	"flexran/internal/apps/broker"
	"flexran/internal/controller"
	"flexran/internal/dash"
	"flexran/internal/enb"
	"flexran/internal/epc"
	"flexran/internal/lte"
	"flexran/internal/radio"
	"flexran/internal/scenario"
	"flexran/internal/sched"
	"flexran/internal/sim"
	"flexran/internal/slice"
	"flexran/internal/transport"
	"flexran/internal/ue"
	"flexran/internal/vsfdsl"
)

// Identifier and radio types.
type (
	// RNTI identifies a UE within a cell.
	RNTI = lte.RNTI
	// CQI is a channel quality indicator in [0, 15].
	CQI = lte.CQI
	// Subframe is the absolute TTI counter.
	Subframe = lte.Subframe
	// ENBID identifies an eNodeB/agent.
	ENBID = lte.ENBID
	// CellID identifies a cell within an eNodeB.
	CellID = lte.CellID
)

// Control-plane types.
type (
	// Master is the FlexRAN master controller.
	Master = controller.Master
	// MasterOptions configures master behaviour.
	MasterOptions = controller.Options
	// App is a northbound application; see also TickerApp and WatchApp.
	App = controller.App
	// TickerApp runs once per master TTI cycle.
	TickerApp = controller.TickerApp
	// Context is the northbound API handed to applications.
	Context = controller.Context
	// RIB is the RAN information base.
	RIB = controller.RIB
	// WatchEvent is one typed, sequenced RIB delta on the event layer.
	WatchEvent = controller.WatchEvent
	// WatchFilter selects the events a watcher receives.
	WatchFilter = controller.WatchFilter
	// WatchKind is the event-kind bitmask of a WatchEvent.
	WatchKind = controller.WatchKind
	// Watcher is one bounded-buffer subscription on the event layer.
	Watcher = controller.Watcher
	// WatchApp receives the full in-tick event stream as an application.
	WatchApp = controller.WatchApp
	// AppInfo describes one registered application and its counters.
	AppInfo = controller.AppInfo
	// CmdOutcome is the terminal fate of one sequenced command.
	CmdOutcome = controller.CmdOutcome
	// SharePlan is the typed per-group share actuation resource.
	SharePlan = controller.SharePlan
	// HealthState grades an agent session (Healthy…HealthDown).
	HealthState = controller.HealthState
	// Agent is the per-eNodeB FlexRAN agent.
	Agent = agent.Agent
	// AgentOptions configures agent trust policy.
	AgentOptions = agent.Options
)

// Data-plane types.
type (
	// ENB is the simulated eNodeB data plane.
	ENB = enb.ENB
	// ENBConfig configures an eNodeB.
	ENBConfig = enb.Config
	// UEParams configures a UE added to an eNodeB.
	UEParams = enb.UEParams
	// UEReport is a per-UE data-plane snapshot.
	UEReport = enb.UEReport
	// EPC is the minimal core network.
	EPC = epc.EPC
	// ChannelModel yields per-subframe CQIs.
	ChannelModel = radio.Model
	// TrafficGenerator produces per-subframe traffic.
	TrafficGenerator = ue.Generator
	// Scheduler is a MAC scheduling algorithm.
	Scheduler = sched.Scheduler
	// Netem impairs a control channel (one-way delay/jitter/loss).
	Netem = transport.Netem
)

// Simulation types.
type (
	// Sim is a running virtual-time scenario.
	Sim = sim.Sim
	// SimConfig configures a scenario, including the opt-in worker pool
	// of the TTI engine (SimConfig.Workers; serial unless > 1).
	SimConfig = sim.Config
	// ENBSpec declares one eNodeB of a scenario.
	ENBSpec = sim.ENBSpec
	// UESpec declares one UE of a scenario.
	UESpec = sim.UESpec
	// Node is one eNodeB built from an ENBSpec: its data plane, agent and
	// traffic.
	Node = sim.Node
	// HandoverRecord is one executed UE migration of a scenario.
	HandoverRecord = sim.HandoverRecord
	// Fault is one scheduled failure-injection event of a scenario.
	Fault = sim.Fault
	// FaultKind selects the injected failure (link cut/restore, restart).
	FaultKind = sim.FaultKind
)

// Failure-injection kinds (see Sim.InjectFaults).
const (
	FaultLinkCut      = sim.FaultLinkCut
	FaultLinkRestore  = sim.FaultLinkRestore
	FaultAgentRestart = sim.FaultAgentRestart
)

// Mobility types: geometry, motion models and the handover control loop.
type (
	// Point is a position in meters.
	Point = radio.Point
	// Transmitter is a downlink source (a cell site's RF side).
	Transmitter = radio.Transmitter
	// RadioSite binds a transmitter to an eNodeB/cell.
	RadioSite = radio.Site
	// RadioMap is the shared site directory of a scenario.
	RadioMap = radio.Map
	// Mobility produces a UE position per subframe.
	Mobility = radio.Mobility
	// StaticMobility is a motionless position.
	StaticMobility = radio.Static
	// WaypointMobility walks a polyline at constant speed.
	WaypointMobility = radio.Waypoint
	// RandomWaypointMobility wanders a rectangle, deterministic per seed.
	RandomWaypointMobility = radio.RandomWaypoint
	// GeoChannel derives CQI and neighbour measurements from position.
	GeoChannel = radio.GeoChannel
	// MobilityManager is the master-side handover decision application.
	MobilityManager = apps.MobilityManager
	// TargetPolicy picks handover targets for the MobilityManager.
	TargetPolicy = apps.TargetPolicy
	// StrongestNeighbor hands over to the best-measured neighbour.
	StrongestNeighbor = apps.StrongestNeighbor
	// LoadBalanced discounts neighbour strength by target-cell load.
	LoadBalanced = apps.LoadBalanced
)

// VSF delegation types.
type (
	// VSFProgram is compiled scheduler bytecode pushable over the wire.
	VSFProgram = vsfdsl.Program
)

// Declarative scenario types: yamlite documents describing topology, UE
// population, apps, slicing and fault scripts, runnable via one call.
// See internal/scenario and the scenarios/ library.
type (
	// Scenario is a parsed, validated scenario document.
	Scenario = scenario.Scenario
	// ScenarioRuntime is one built (wired, not yet run) scenario instance.
	ScenarioRuntime = scenario.Runtime
	// ScenarioResult is a finished run: summary plus live runtime.
	ScenarioResult = scenario.Result
	// ScenarioSummary is the deterministic outcome of a scenario run.
	ScenarioSummary = scenario.Summary
)

// ParseScenario parses and validates a scenario document.
func ParseScenario(doc string) (*Scenario, error) { return scenario.Parse(doc) }

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// LoadNamedScenario finds "<name>.yaml" in the repository's scenarios/
// library, searching upward from the working directory.
func LoadNamedScenario(name string) (*Scenario, error) { return scenario.LoadNamed(name) }

// MAC control-module operation names (VSF slots).
const (
	OpDLUESched = agent.OpDLUESched
	OpULUESched = agent.OpULUESched
)

// Watch-event kinds (bitmask; combine with |, or use WatchAllEvents).
const (
	WatchHello     = controller.WatchHello
	WatchUp        = controller.WatchUp
	WatchDown      = controller.WatchDown
	WatchStats     = controller.WatchStats
	WatchUE        = controller.WatchUE
	WatchMeas      = controller.WatchMeas
	WatchHandover  = controller.WatchHandover
	WatchHealth    = controller.WatchHealth
	WatchSlice     = controller.WatchSlice
	WatchCmdFailed = controller.WatchCmdFailed
	WatchAllEvents = controller.WatchAll
)

// Elastic slicing types: the declarative slice resource model and the
// closed-loop broker that plans shares against it. See
// internal/apps/broker and the "slices:" scenario section.
type (
	// SliceSpec declares one network slice (name, UE group, SLA, weight,
	// admission policy).
	SliceSpec = slice.Spec
	// SliceSLA is a slice's service-level objective set.
	SliceSLA = slice.SLA
	// SliceStatus is the broker's live view of one slice.
	SliceStatus = slice.Status
	// SliceAdmissionPolicy thresholds the broker's admission projection.
	SliceAdmissionPolicy = slice.AdmissionPolicy
	// SliceDecision is an admission-control outcome.
	SliceDecision = slice.Decision
	// SliceBroker is the closed-loop elastic slice broker application.
	SliceBroker = broker.Broker
	// SliceBrokerConfig parameterizes a SliceBroker.
	SliceBrokerConfig = broker.Config
)

// NewSliceBroker builds the elastic slice broker over the given specs;
// register it on a Master and (optionally) expose it northbound with
// WithSliceBroker.
func NewSliceBroker(cfg SliceBrokerConfig, specs ...SliceSpec) (*SliceBroker, error) {
	return broker.New(cfg, specs...)
}

// NewMaster builds a master controller.
func NewMaster(opts MasterOptions) *Master { return controller.NewMaster(opts) }

// DefaultMasterOptions mirrors the paper's evaluation configuration:
// per-TTI statistics reporting and per-TTI master-agent synchronization.
func DefaultMasterOptions() MasterOptions { return controller.DefaultOptions() }

// NewENB builds a simulated eNodeB with local default scheduling (the
// "vanilla" configuration of the paper's Fig. 6 comparison).
func NewENB(cfg ENBConfig) *ENB { return enb.New(cfg) }

// NewAgent attaches a FlexRAN agent to an eNodeB, taking over its
// control hooks.
func NewAgent(e *ENB, opts AgentOptions) *Agent { return agent.New(e, opts) }

// NewEPC builds an empty core network.
func NewEPC() *EPC { return epc.New() }

// NewSim builds a virtual-time scenario.
func NewSim(cfg SimConfig, enbs ...ENBSpec) (*Sim, error) { return sim.New(cfg, enbs...) }

// MustNewSim is NewSim panicking on configuration errors.
func MustNewSim(cfg SimConfig, enbs ...ENBSpec) *Sim { return sim.MustNew(cfg, enbs...) }

// NewNode builds one standalone eNodeB from its spec, with an EPC of its
// own, for RunAgentLoop to step in wall-clock time.
func NewNode(spec ENBSpec) (*Node, error) { return sim.NewNode(spec) }

// Channel models.

// FixedChannel is a constant-quality channel.
func FixedChannel(c CQI) ChannelModel { return radio.Fixed(c) }

// SquareWaveChannel alternates between two CQIs.
func SquareWaveChannel(a, b CQI, halfPeriod, total Subframe) ChannelModel {
	return radio.NewSquareWave(a, b, halfPeriod, total)
}

// FadingChannel is a Gauss-Markov fading process around a mean CQI.
func FadingChannel(mean, rho, sigma float64, seed int64) ChannelModel {
	return radio.NewGaussMarkov(mean, rho, sigma, seed)
}

// Mobility and handover.

// NewRadioMap builds the shared cell-site directory of a scenario.
func NewRadioMap(sites ...RadioSite) *RadioMap { return radio.NewMap(sites...) }

// NewGeoChannel builds a position-derived channel: the UE's CQI and
// neighbour measurements follow its mobility model across the radio map.
func NewGeoChannel(m *RadioMap, mob Mobility, serving ENBID) *GeoChannel {
	return radio.NewGeoChannel(m, mob, serving)
}

// NewMobilityManager builds the centralized handover application; register
// it on a Master to close the A3 control loop.
func NewMobilityManager() *MobilityManager { return apps.NewMobilityManager() }

// Traffic generators.

// NewCBR is a constant-bit-rate source (kb/s).
func NewCBR(rateKbps float64) TrafficGenerator { return ue.NewCBR(rateKbps) }

// NewFullBuffer keeps the queue saturated.
func NewFullBuffer() TrafficGenerator { return ue.NewFullBuffer() }

// Schedulers.

// NewRoundRobin is the fair equal-share scheduler.
func NewRoundRobin() Scheduler { return sched.NewRoundRobin() }

// NewProportionalFair is the classic PF scheduler.
func NewProportionalFair() Scheduler { return sched.NewProportionalFair() }

// NewSlicer partitions PRBs among UE groups by share (RAN sharing).
func NewSlicer(name string, shares []float64, workConserving bool, inner func() Scheduler) Scheduler {
	return sched.NewSlicer(name, shares, workConserving, inner)
}

// CompileVSF compiles a scheduling-priority expression against the MAC
// variable environment (agent.MACVars) for pushing to agents via
// Context.PushProgramVSF or direct installation.
func CompileVSF(expr string) (*VSFProgram, error) {
	return vsfdsl.Compile(expr, agent.MACVars)
}

// SustainableBitrate returns the highest ladder bitrate sustainable at a
// TCP goodput (the Table 2 mapping used by the MEC application).
func SustainableBitrate(ladder []float64, availMbps float64) (float64, bool) {
	return dash.SustainableBitrate(ladder, availMbps)
}

// MaxTCPThroughput reports the steady TCP goodput achievable at a CQI
// over the standard 10 MHz evaluation cell (Table 2's left column).
func MaxTCPThroughput(c CQI) float64 { return ue.MaxTCPThroughput(c) }
