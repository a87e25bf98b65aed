package experiments

import (
	"runtime"
	"time"

	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/radio"
	"flexran/internal/sched"
	"flexran/internal/sim"
	"flexran/internal/ue"
)

// Fig8Result is the master-controller resource usage of Fig. 8: per-TTI
// cycle CPU time split between core components (RIB updater) and
// applications, plus memory footprint, for a growing number of connected
// agents (16 UEs each, per-TTI reporting, a centralized scheduler and a
// monitoring app running).
type Fig8Result struct {
	AgentCounts []int
	CoreMs      []float64 // median RIB-updater time per cycle
	AppsMs      []float64 // median application time per cycle
	IdleMs      []float64 // remainder of the 1 ms TTI budget
	HeapMB      []float64
}

// ID implements Result.
func (*Fig8Result) ID() string { return "fig8" }

func (r *Fig8Result) String() string {
	t := newTable("Fig 8: master TTI-cycle utilization and memory (16 UEs/agent)")
	t.row("agents", "core (ms)", "apps (ms)", "idle (ms)", "heap (MB)")
	for i, n := range r.AgentCounts {
		t.row(f1(float64(n)), f2(r.CoreMs[i]), f2(r.AppsMs[i]), f2(r.IdleMs[i]), f2(r.HeapMB[i]))
	}
	return t.String()
}

func runFig8(scale float64) Result {
	seconds := 2 * scale
	res := &Fig8Result{AgentCounts: []int{0, 1, 2, 3}}
	for _, nAgents := range res.AgentCounts {
		var enbs []sim.ENBSpec
		for a := 0; a < nAgents; a++ {
			var specs []sim.UESpec
			for i := 0; i < 16; i++ {
				specs = append(specs, sim.UESpec{
					IMSI:    uint64(1000*a + i + 1),
					Channel: radio.Fixed(12),
					DL:      ue.NewCBR(300),
				})
			}
			enbs = append(enbs, sim.ENBSpec{
				ID: lte.ENBID(a + 1), Agent: true, Seed: int64(a + 1), UEs: specs,
			})
		}
		o := controller.DefaultOptions()
		// The LoopStats attached below must add no probe traffic to the
		// simulated run.
		o.RTTProbePeriodTTI = 0
		s := sim.MustNew(sim.Config{Master: &o}, enbs...)
		s.Master.Register(apps.NewRemoteScheduler(2, sched.NewRoundRobin()), 100)
		s.Master.Register(apps.NewMonitor(10), 0)
		s.WaitAttached(3000)
		// Timing starts after warm-up. The medians are the figure: one
		// descheduled cycle moves a mean over a few hundred wall-clock
		// samples, not their median.
		var ls metrics.LoopStats
		s.Master.SetLoopStats(&ls)
		s.RunSeconds(seconds)
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		core, appsT := ms(ls.Ingest.Quantile(0.5)), ms(ls.Apps.Quantile(0.5))
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		idle := 1.0 - core - appsT
		if idle < 0 {
			idle = 0
		}
		res.CoreMs = append(res.CoreMs, core)
		res.AppsMs = append(res.AppsMs, appsT)
		res.IdleMs = append(res.IdleMs, idle)
		res.HeapMB = append(res.HeapMB, float64(m.HeapAlloc)/(1<<20))
	}
	return res
}

func init() { register("fig8", runFig8) }
