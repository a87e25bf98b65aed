// Package apps contains the RAN control and management applications built
// over the FlexRAN northbound API, reproducing the use cases of the paper:
// a centralized remote scheduler with schedule-ahead (§5.3), a monitoring
// app, the optimized-eICIC coordinator (§6.1), the MEC video-assist app
// (§6.2) and the RAN-sharing manager (§6.3).
package apps

import (
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/sched"
)

// RemoteScheduler is the centralized downlink scheduling application: it
// observes each agent's state from the RIB and pushes per-subframe
// scheduling decisions for a target n subframes ahead of the agent's last
// reported time (the schedule-ahead parameter of Fig. 9).
type RemoteScheduler struct {
	// Ahead is the schedule-ahead n, in subframes.
	Ahead lte.Subframe
	// Algo computes the allocation (e.g. sched.NewRoundRobin()).
	Algo sched.Scheduler
	// Cell is the target cell at each agent.
	Cell lte.CellID
	// TotalPRB is the PRB budget assumed (read from RIB config when 0).
	TotalPRB int
	// Sent counts scheduling commands issued.
	Sent int

	lastTarget map[lte.ENBID]lte.Subframe

	// Per-tick RIB snapshots, reused across ticks and agents so the read
	// path allocates nothing at steady state.
	agents []lte.ENBID
	ues    []protocol.UEStats
	in     []sched.UEInfo
}

// NewRemoteScheduler builds the app.
func NewRemoteScheduler(ahead lte.Subframe, algo sched.Scheduler) *RemoteScheduler {
	return &RemoteScheduler{
		Ahead: ahead, Algo: algo,
		lastTarget: map[lte.ENBID]lte.Subframe{},
	}
}

// Name implements controller.App.
func (*RemoteScheduler) Name() string { return "remote-scheduler" }

// OnTick implements controller.TickerApp. It runs once per master cycle:
// for each agent it builds a scheduler input from the RIB's latest UE
// statistics (transmission queues, CQI — exactly the state the paper's
// centralized scheduler consumes) and pushes the decision.
func (r *RemoteScheduler) OnTick(ctx *controller.Context, _ lte.Subframe) {
	rib := ctx.RIB()
	r.agents = rib.AppendAgents(r.agents[:0])
	for _, enbID := range r.agents {
		if !rib.Connected(enbID) {
			continue
		}
		sf, ok := rib.AgentSF(enbID)
		if !ok {
			continue
		}
		target := sf + r.Ahead
		if prev, ok := r.lastTarget[enbID]; ok && target <= prev {
			// The agent's clock estimate did not advance enough for a
			// fresh target; skip rather than overwrite a pushed decision.
			continue
		}
		in := sched.Input{
			SF:       target,
			Dir:      lte.Downlink,
			TotalPRB: r.prbs(ctx, enbID),
			UEs:      r.in[:0],
		}
		r.ues = rib.AppendUEsOf(enbID, r.ues[:0])
		for i := range r.ues {
			ue := &r.ues[i]
			if ue.DLQueue == 0 {
				continue
			}
			in.UEs = append(in.UEs, sched.UEInfo{
				RNTI:        ue.RNTI,
				CQI:         ue.CQI,
				QueueBytes:  int(ue.DLQueue),
				AvgRateKbps: float64(ue.DLRateKbps),
				LastSched:   ue.LastSchedSF,
			})
		}
		r.in = in.UEs
		if len(in.UEs) == 0 {
			continue
		}
		allocs := r.Algo.Schedule(in)
		if len(allocs) == 0 {
			continue
		}
		if err := ctx.ScheduleDL(enbID, r.Cell, target, allocs); err == nil {
			r.Sent++
			r.lastTarget[enbID] = target
		}
	}
}

func (r *RemoteScheduler) prbs(ctx *controller.Context, enbID lte.ENBID) int {
	if r.TotalPRB > 0 {
		return r.TotalPRB
	}
	cfg, ok := ctx.RIB().AgentConfig(enbID)
	if ok {
		for _, c := range cfg.Cells {
			if c.Cell == r.Cell {
				return c.Bandwidth.PRBs()
			}
		}
	}
	return lte.BW10MHz.PRBs()
}
