package apps

import (
	"sync"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// MobilityManager implements the paper's §7.1 mobility-management use
// case: a centralized handover decision maker exploiting the master's
// network-wide view. Serving agents run the A3 entering condition locally
// (their RRC module's hysteresis and time-to-trigger, retunable via policy
// reconfiguration) and raise MeasReports; the manager picks a target with
// a pluggable policy — strongest neighbour by default, optionally
// discounted by target-cell load (the paper's "load of cells" factor) —
// and issues a HandoverCommand back to the serving agent. Completions
// arrive from the target agent and retire the in-flight entry, so a UE is
// never commanded twice concurrently.
type MobilityManager struct {
	// Policy picks the target cell for an A3 report; nil means
	// StrongestNeighbor.
	Policy TargetPolicy
	// MinMarginDB is an additional master-side guard on top of the
	// agent-side hysteresis: when set positive, commands toward measured
	// targets with a smaller RSRP margin are withheld. 0 (the default)
	// accepts every A3 report, and targets the policy picked outside the
	// measured neighbour list are never gated.
	MinMarginDB float64
	// CommandTimeoutTTI expires an in-flight handover that never
	// completed (lost command or failed admission), re-arming the UE.
	CommandTimeoutTTI int

	mu        sync.Mutex
	inflight  map[uint64]inflightHO
	completed int
	expired   int
	canceled  int
	failed    int
}

type inflightHO struct {
	serving  lte.ENBID
	target   lte.ENBID
	issuedAt lte.Subframe
	// seq is the reliable-delivery sequence number of the command (0 when
	// reliable delivery is disabled), correlating cmd_failed events.
	seq uint64
}

// NewMobilityManager builds the app with the strongest-neighbour policy.
func NewMobilityManager() *MobilityManager {
	return &MobilityManager{
		CommandTimeoutTTI: 200,
		inflight:          map[uint64]inflightHO{},
	}
}

// Name implements controller.App.
func (*MobilityManager) Name() string { return "mobility-manager" }

// hoKey identifies a UE across cells: the IMSI when known, else the
// serving eNodeB/RNTI pair packed into the same space.
func hoKey(enb lte.ENBID, rnti lte.RNTI, imsi uint64) uint64 {
	if imsi != 0 {
		return imsi
	}
	return uint64(enb)<<32 | uint64(rnti)
}

// OnWatch implements controller.WatchApp: the manager's whole event side.
// Liveness, health and delivery-failure events retire in-flight entries
// whose handover can no longer be trusted to finish, completions retire
// the one that did, and each A3 report is a handover decision.
func (m *MobilityManager) OnWatch(ctx *controller.Context, ev controller.WatchEvent) {
	switch ev.Kind {
	case controller.WatchMeas:
		m.onMeasReport(ctx, ev.ENB, ev.Payload.(*protocol.MeasReport))
	case controller.WatchHandover:
		hc := ev.Payload.(*protocol.HandoverComplete)
		key := hoKey(hc.SourceENB, hc.SourceRNTI, hc.IMSI)
		m.mu.Lock()
		if _, ok := m.inflight[key]; ok {
			delete(m.inflight, key)
			m.completed++
		}
		m.mu.Unlock()
	case controller.WatchDown:
		// An agent disconnecting mid-handover (serving side: the command
		// may never have been executed; target side: the completion may
		// never arrive) retires every in-flight entry touching it at once
		// instead of leaking it until the command timeout. The affected UE
		// re-arms — its next A3 report (agents repeat reports at the RRC
		// report interval while the condition holds) re-routes it through
		// whatever targets are still up, or re-admits it to the serving
		// cell's loop once that agent resyncs.
		m.retire(&m.canceled, func(ho inflightHO) bool {
			return ho.serving == ev.ENB || ho.target == ev.ENB
		})
	case controller.WatchHealth:
		// A target cell turning Suspect cancels every in-flight handover
		// into it — the UE re-arms and its next A3 report routes it through
		// a healthy target instead of waiting out the command timeout
		// against a cell that may never admit it. Degraded targets are left
		// alone (the command likely still lands), and the serving side
		// keeps its entries — the command is already with the serving
		// agent, canceling master-side state would only double-command.
		if ev.Health >= controller.Suspect {
			m.retire(&m.canceled, func(ho inflightHO) bool { return ho.target == ev.ENB })
		}
	case controller.WatchCmdFailed:
		// A handover command that exhausted its retransmission budget (or
		// died with its session) is provably not executing: retire it so
		// the UE re-arms for the next report.
		m.retire(&m.failed, func(ho inflightHO) bool { return ho.seq == ev.CmdSeq })
	}
}

// retire drops every in-flight entry gone selects, counting each in
// *counter.
func (m *MobilityManager) retire(counter *int, gone func(inflightHO) bool) {
	m.mu.Lock()
	for k, ho := range m.inflight {
		if gone(ho) {
			delete(m.inflight, k)
			*counter++
		}
	}
	m.mu.Unlock()
}

// onMeasReport handles one A3 report from the serving agent: at most one
// handover command.
func (m *MobilityManager) onMeasReport(ctx *controller.Context, serving lte.ENBID, rep *protocol.MeasReport) {
	if len(rep.Neighbors) == 0 {
		return
	}
	key := hoKey(serving, rep.RNTI, rep.IMSI)
	m.mu.Lock()
	_, busy := m.inflight[key]
	m.mu.Unlock()
	if busy {
		return
	}
	pol := m.Policy
	if pol == nil {
		pol = StrongestNeighbor{}
	}
	target, cell, ok := pol.Pick(ctx.RIB(), serving, rep)
	if !ok || target == serving || !ctx.RIB().Connected(target) {
		return
	}
	// Never hand a UE into a gray-failing cell: a Suspect agent is alive at
	// the transport but its control plane cannot be trusted to admit the UE
	// (and its completion may never come back). The built-in policies
	// already skip such targets; this guards custom policies too.
	if ctx.RIB().HealthOf(target) >= controller.Suspect {
		return
	}
	// The margin is only known when the picked target appears in the
	// report (custom policies may choose from wider RIB state); the gate
	// applies to measured margins and only when configured positive, so
	// the default accepts every A3 report — including load-balancing
	// picks toward a weaker-signal cell.
	rsrp, measured := targetRSRP(rep, target)
	if m.MinMarginDB > 0 && measured && rsrp-float64(rep.ServingRSRPdBm) < m.MinMarginDB {
		return
	}
	seq, err := ctx.CommandHandover(serving, rep.RNTI, rep.IMSI, target, cell)
	if err != nil {
		return // session gone; the next report retries
	}
	m.mu.Lock()
	m.inflight[key] = inflightHO{
		serving: serving, target: target, issuedAt: ctx.Now, seq: seq,
	}
	m.mu.Unlock()
}

// OnTick implements controller.TickerApp: expire in-flight commands that
// never completed so their UEs become eligible again.
func (m *MobilityManager) OnTick(_ *controller.Context, cycle lte.Subframe) {
	if m.CommandTimeoutTTI <= 0 {
		return
	}
	m.mu.Lock()
	for k, ho := range m.inflight {
		if int(cycle-ho.issuedAt) > m.CommandTimeoutTTI {
			delete(m.inflight, k)
			m.expired++
		}
	}
	m.mu.Unlock()
}

// targetRSRP returns the reported RSRP toward a specific neighbour, with
// ok=false when the cell was not measured (policy picked outside the
// report).
func targetRSRP(rep *protocol.MeasReport, enb lte.ENBID) (float64, bool) {
	for _, n := range rep.Neighbors {
		if n.ENB == enb {
			return float64(n.RSRPdBm), true
		}
	}
	return 0, false
}

// Completed reports how many commanded handovers finished.
func (m *MobilityManager) Completed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completed
}

// InFlight reports how many commands await completion.
func (m *MobilityManager) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inflight)
}

// Expired reports commands that timed out without completing.
func (m *MobilityManager) Expired() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.expired
}

// Canceled reports commands retired early because the serving or target
// agent disconnected or turned Suspect mid-handover.
func (m *MobilityManager) Canceled() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.canceled
}

// Failed reports commands whose reliable delivery gave up.
func (m *MobilityManager) Failed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// ---------------------------------------------------------------------------
// Target policies

// TargetPolicy picks the handover target for an A3 measurement report.
type TargetPolicy interface {
	Name() string
	// Pick returns the target eNodeB/cell for a report raised by the
	// serving eNodeB, or ok=false to skip the report. The report is
	// read-only.
	Pick(rib *controller.RIB, serving lte.ENBID, rep *protocol.MeasReport) (lte.ENBID, lte.CellID, bool)
}

// StrongestNeighbor hands over to the best-measured neighbour cell (the
// report is ordered strongest first by the agent).
type StrongestNeighbor struct{}

// Name implements TargetPolicy.
func (StrongestNeighbor) Name() string { return "strongest-neighbor" }

// Pick implements TargetPolicy. Suspect cells are skipped like
// disconnected ones: the next-strongest healthy neighbour wins.
func (StrongestNeighbor) Pick(rib *controller.RIB, _ lte.ENBID, rep *protocol.MeasReport) (lte.ENBID, lte.CellID, bool) {
	for _, n := range rep.Neighbors {
		if rib.Connected(n.ENB) && rib.HealthOf(n.ENB) < controller.Suspect {
			return n.ENB, n.Cell, true
		}
	}
	return 0, 0, false
}

// LoadBalanced discounts each neighbour's RSRP by the target cell's UE
// count (LoadWeight dB per attached UE, relative to the serving cell) —
// the network-wide criterion a per-cell decision cannot apply.
type LoadBalanced struct {
	// LoadWeight is the penalty in dB per UE of load difference.
	LoadWeight float64
}

// Name implements TargetPolicy.
func (LoadBalanced) Name() string { return "load-balanced" }

// Pick implements TargetPolicy.
func (p LoadBalanced) Pick(rib *controller.RIB, serving lte.ENBID, rep *protocol.MeasReport) (lte.ENBID, lte.CellID, bool) {
	servingLoad := rib.UECount(serving)
	var best lte.ENBID
	var bestCell lte.CellID
	bestScore := -1e18
	for _, n := range rep.Neighbors {
		if !rib.Connected(n.ENB) || rib.HealthOf(n.ENB) >= controller.Suspect {
			continue
		}
		score := float64(n.RSRPdBm) - p.LoadWeight*float64(rib.UECount(n.ENB)-servingLoad)
		if score > bestScore {
			best, bestCell, bestScore = n.ENB, n.Cell, score
		}
	}
	return best, bestCell, best != 0
}
