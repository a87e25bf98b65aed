package apps

import (
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/sched"
)

// EICIC is the optimized-eICIC coordinator of §6.1: during almost-blank
// subframes the small cells have transmission priority, but whenever the
// coordinator sees — through the consolidated RIB view — that the small
// cells will not need an upcoming ABS (their backlog drains in earlier ABS
// subframes), it grants that subframe to the macro cell by pushing a
// scheduling decision to the macro agent's remote stub. Outside ABS, and
// on the small cells, the local agent-side VSFs (sched.ABSSwitch /
// sched.ABSGate) operate autonomously — exactly the split of control the
// paper describes.
type EICIC struct {
	// MacroENB hosts the macro cell; SmallENBs the small cells.
	MacroENB  lte.ENBID
	MacroCell lte.CellID
	SmallENBs []lte.ENBID
	// ABS is the almost-blank-subframe pattern.
	ABS sched.SubframePredicate
	// Ahead is the schedule-ahead for the macro ABS grants.
	Ahead lte.Subframe
	// Algo allocates the granted subframe among macro UEs.
	Algo sched.Scheduler
	// Optimized enables the ABS re-grant; false reproduces plain eICIC
	// (the coordinator never grants, macro stays muted in ABS).
	Optimized bool

	// Granted counts ABS subframes handed to the macro.
	Granted int

	lastTarget lte.Subframe
	// clearCQI/hitCQI track the best and worst CQI each UE has reported:
	// the interference-free and interference-hit channel qualities. Real
	// eICIC separates these with RRC restricted measurement subsets; the
	// coordinator needs both — clear CQI to size grants and drain
	// estimates, hit CQI to model the victim's stale-CQI warmup subframe.
	clearCQI map[lte.RNTI]lte.CQI
	hitCQI   map[lte.RNTI]lte.CQI
}

// NewEICIC builds the coordinator.
func NewEICIC(macro lte.ENBID, smalls []lte.ENBID, absCount int, optimized bool) *EICIC {
	return &EICIC{
		MacroENB:  macro,
		SmallENBs: smalls,
		ABS:       sched.ABSPattern(absCount),
		Ahead:     2,
		Algo:      sched.NewRoundRobin(),
		Optimized: optimized,
		clearCQI:  map[lte.RNTI]lte.CQI{},
		hitCQI:    map[lte.RNTI]lte.CQI{},
	}
}

func (e *EICIC) observe(rnti lte.RNTI, cqi lte.CQI) {
	if cqi == 0 {
		return
	}
	if cqi > e.clearCQI[rnti] {
		e.clearCQI[rnti] = cqi
	}
	if cur, ok := e.hitCQI[rnti]; !ok || cqi < cur {
		e.hitCQI[rnti] = cqi
	}
}

// Name implements controller.App.
func (*EICIC) Name() string { return "eicic-coordinator" }

// OnTick implements controller.TickerApp.
func (e *EICIC) OnTick(ctx *controller.Context, _ lte.Subframe) {
	if !e.Optimized {
		return
	}
	rib := ctx.RIB()
	// A gray-failing macro agent gets no grants: a pushed schedule that
	// lands late (or never) would collide with the small cells' ABS
	// transmissions — the exact interference ABS exists to prevent.
	if rib.HealthOf(e.MacroENB) >= controller.Suspect {
		return
	}
	sf, ok := rib.AgentSF(e.MacroENB)
	if !ok {
		return
	}
	target := sf + e.Ahead
	if target <= e.lastTarget || !e.ABS(target) {
		return
	}
	// Small cells keep priority: the grant happens only if every small
	// cell can drain its reported backlog in the ABS subframes *before*
	// the target. The drain model accounts for the victim's stale-CQI
	// warmup: its first transmission after interference runs at the hit
	// CQI, subsequent ones at the clear CQI. The report snapshot is
	// pre-scheduling, so the snapshot's own subframe counts as a drain
	// opportunity when it is an ABS.
	for _, small := range e.SmallENBs {
		sfSmall, ok := rib.AgentSF(small)
		if !ok {
			continue
		}
		drainOps := 0
		for s := sfSmall; s < target; s++ {
			if e.ABS(s) {
				drainOps++
			}
		}
		cfg, _ := rib.AgentConfig(small)
		prbs := lte.BW10MHz.PRBs()
		if len(cfg.Cells) > 0 {
			prbs = cfg.Cells[0].Bandwidth.PRBs()
		}
		need := 0
		for _, u := range rib.UEsOf(small) {
			e.observe(u.RNTI, u.CQI)
			if u.DLQueue == 0 {
				continue
			}
			clear, hit := e.clearCQI[u.RNTI], e.hitCQI[u.RNTI]
			if clear == 0 {
				clear = 1
			}
			if hit == 0 {
				hit = 1
			}
			warmup := lte.TBSBytes(lte.Downlink, hit, prbs)
			perSF := lte.TBSBytes(lte.Downlink, clear, prbs)
			q := int(u.DLQueue)
			need++ // warmup subframe at the hit CQI
			if q > warmup {
				need += (q - warmup + perSF - 1) / perSF
			}
		}
		if need > drainOps {
			return // the small cell still needs this ABS
		}
	}
	// Grant the ABS to the macro cell at the macro UEs' interference-free
	// channel quality (their instantaneous reports are polluted by the
	// small cell's ABS transmissions).
	in := sched.Input{SF: target, Dir: lte.Downlink, TotalPRB: e.prbs(ctx)}
	for _, u := range rib.UEsOf(e.MacroENB) {
		e.observe(u.RNTI, u.CQI)
		if u.DLQueue == 0 {
			continue
		}
		cqi := e.clearCQI[u.RNTI]
		if cqi == 0 {
			cqi = u.CQI
		}
		in.UEs = append(in.UEs, sched.UEInfo{
			RNTI: u.RNTI, CQI: cqi,
			QueueBytes:  int(u.DLQueue),
			AvgRateKbps: float64(u.DLRateKbps),
		})
	}
	if len(in.UEs) == 0 {
		return
	}
	allocs := e.Algo.Schedule(in)
	if len(allocs) == 0 {
		return
	}
	if err := ctx.ScheduleDL(e.MacroENB, e.MacroCell, target, allocs); err == nil {
		e.Granted++
		e.lastTarget = target
	}
}

func (e *EICIC) prbs(ctx *controller.Context) int {
	cfg, ok := ctx.RIB().AgentConfig(e.MacroENB)
	if ok && len(cfg.Cells) > 0 {
		return cfg.Cells[0].Bandwidth.PRBs()
	}
	return lte.BW10MHz.PRBs()
}
