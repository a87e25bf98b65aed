package experiments

// fig_resilience: RIB-convergence time after an agent flap. An agent
// serving an attached UE population crash-restarts behind control channels
// of increasing one-way delay; we count the master cycles from the restart
// until its RIB shard is authoritative again, at two depths:
//
//   - records: the shard is connected and every UE has a statistics record
//     again. The re-subscription issued with the welcome restarts the
//     report stream immediately, so this converges in ~RTT either way.
//   - full state: additionally every UE's identity (IMSI) is known. Only
//     the resync StateSnapshot carries identities — periodic statistics
//     never do (pre-resync, identities arrived only via mobility events),
//     so without the resync pull a static population stays anonymous
//     forever: the RIB is degraded, not just late.
//
// The NoResync arm is the pre-resync baseline (ablation knob on the
// master), run at the same delays.

import (
	"fmt"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/transport"
)

// FigResilienceResult is the convergence sweep.
type FigResilienceResult struct {
	DelayTTI []int
	// Cycles from the restart to convergence; -1 = never (within 5000).
	ResyncRecords  []int
	ResyncFull     []int
	BaselineRecord []int
	BaselineFull   []int
}

// ID implements Result.
func (*FigResilienceResult) ID() string { return "fig_resilience" }

func cyc(c int) string {
	if c < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", c)
}

func (r *FigResilienceResult) String() string {
	t := newTable("fig_resilience: RIB convergence after agent restart (master cycles)")
	t.row("one-way delay", "resync: records", "resync: full", "baseline: records", "baseline: full")
	for i := range r.DelayTTI {
		t.row(
			fmt.Sprintf("%d ms", r.DelayTTI[i]),
			cyc(r.ResyncRecords[i]),
			cyc(r.ResyncFull[i]),
			cyc(r.BaselineRecord[i]),
			cyc(r.BaselineFull[i]),
		)
	}
	return t.String()
}

func init() { register("fig_resilience", runFigResilience) }

func runFigResilience(scale float64) Result {
	// Scale bounds the post-flap observation window (how long we wait
	// before declaring "never"); it must stay well past the 100-TTI
	// report period plus the largest RTT.
	window := int(5000 * scale)
	if window < 500 {
		window = 500
	}
	res := &FigResilienceResult{DelayTTI: []int{0, 5, 15}}
	for _, d := range res.DelayTTI {
		rec, full := convergenceAfterRestart(d, false, window)
		res.ResyncRecords = append(res.ResyncRecords, rec)
		res.ResyncFull = append(res.ResyncFull, full)
		rec, full = convergenceAfterRestart(d, true, window)
		res.BaselineRecord = append(res.BaselineRecord, rec)
		res.BaselineFull = append(res.BaselineFull, full)
	}
	return res
}

// convergenceAfterRestart restarts the agent of a settled 4-UE eNodeB and
// returns the master cycles until (a) every UE record is back and (b) the
// full state — records plus identities — is back, watching for at most
// window cycles.
func convergenceAfterRestart(delayTTI int, noResync bool, window int) (records, full int) {
	const ues = 4
	opts := controller.DefaultOptions()
	opts.StatsPeriodTTI = 100 // sparse reporting: the stream the baseline leans on
	opts.NoResync = noResync
	spec := sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		ToMaster: transport.Netem{OneWayTTI: delayTTI},
		ToAgent:  transport.Netem{OneWayTTI: delayTTI},
	}
	for u := 0; u < ues; u++ {
		spec.UEs = append(spec.UEs, sim.UESpec{
			IMSI: uint64(100 + u), Channel: radio.Fixed(lte.CQI(8 + u)),
		})
	}
	s := sim.MustNew(sim.Config{Master: &opts}, spec)
	if !s.WaitAttached(3000) {
		panic("fig_resilience: attach failed")
	}
	s.Run(300) // settle: full shard, stats flowing
	rib := s.Master.RIB()
	if rib.UECount(1) != ues {
		panic("fig_resilience: shard not populated before the flap")
	}

	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultAgentRestart, ENB: 1})
	records, full = -1, -1
	for i := 0; i < window && full < 0; i++ {
		s.Step()
		if !rib.Connected(1) || rib.UECount(1) != ues {
			continue
		}
		gotStats, gotIDs := true, true
		for _, st := range rib.UEsOf(1) {
			if st.CQI == 0 {
				gotStats = false
				break
			}
			if cfg, ok := rib.UEConfigOf(1, st.RNTI); !ok || cfg.IMSI == 0 {
				gotIDs = false
			}
		}
		if gotStats && records < 0 {
			records = i + 1
		}
		if gotStats && gotIDs && full < 0 {
			full = i + 1
		}
	}
	return records, full
}
