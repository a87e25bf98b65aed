package experiments

import (
	"flexran/internal/apps/broker"
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/ue"
)

// Fig12aResult is the dynamic RAN-sharing experiment of §6.3 (Fig. 12a):
// an MNO and an MVNO share one cell through the agent-side slicing
// scheduler; the master's RAN-sharing app reconfigures the per-operator
// resource shares at runtime (70/30 -> 40/60 at 10 s -> 80/20 at 140 s,
// compressed proportionally at lower scales).
type Fig12aResult struct {
	// Phase throughputs per operator (Mb/s), one entry per plan phase.
	MNO  []float64
	MVNO []float64
	// Shares per phase.
	Shares [][]float64
}

// ID implements Result.
func (*Fig12aResult) ID() string { return "fig12a" }

func (r *Fig12aResult) String() string {
	t := newTable("Fig 12a: dynamic MNO/MVNO resource allocation (Mb/s)")
	t.row("phase", "shares", "MNO", "MVNO")
	for i := range r.MNO {
		t.row(f1(float64(i+1)),
			f2(r.Shares[i][0])+"/"+f2(r.Shares[i][1]),
			f2(r.MNO[i]), f2(r.MVNO[i]))
	}
	return t.String()
}

func runFig12a(scale float64) Result {
	phaseSec := []float64{10 * scale, 130 * scale, 30 * scale}
	shares := [][]float64{{0.7, 0.3}, {0.4, 0.6}, {0.8, 0.2}}

	var specs []sim.UESpec
	for i := 0; i < 5; i++ { // 5 MNO UEs
		specs = append(specs, sim.UESpec{
			IMSI: uint64(100 + i), Channel: radio.Fixed(10), Group: 0,
			DL: ue.NewFullBuffer(),
		})
	}
	for i := 0; i < 5; i++ { // 5 MVNO UEs
		specs = append(specs, sim.UESpec{
			IMSI: uint64(200 + i), Channel: radio.Fixed(10), Group: 1,
			DL: ue.NewFullBuffer(),
		})
	}
	o := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &o}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1, UEs: specs,
	})
	must(s.Nodes[0].Agent.Reconfigure(
		"mac:\n  dl_ue_sched:\n    behavior: slice-rr\n    parameters:\n      rb_share: [0.7, 0.3]\n"))
	// Policy plan: the later phases are pushed by the master app.
	plan := []broker.ShareChange{
		{At: lte.Subframe(phaseSec[0] * lte.TTIsPerSecond), Shares: shares[1]},
		{At: lte.Subframe((phaseSec[0] + phaseSec[1]) * lte.TTIsPerSecond), Shares: shares[2]},
	}
	s.Master.Register(broker.NewScript(1, plan), 10)
	s.WaitAttached(3000)

	res := &Fig12aResult{Shares: shares}
	opDelivered := func(group int) uint64 {
		var sum uint64
		for i := range specs {
			if specs[i].Group == group {
				sum += s.Report(0, i).DLDelivered
			}
		}
		return sum
	}
	for _, sec := range phaseSec {
		m0, v0 := opDelivered(0), opDelivered(1)
		s.RunSeconds(sec)
		m1, v1 := opDelivered(0), opDelivered(1)
		res.MNO = append(res.MNO, float64(m1-m0)*8/1e6/sec)
		res.MVNO = append(res.MVNO, float64(v1-v0)*8/1e6/sec)
	}
	return res
}

// Fig12bResult is the scheduling-policy experiment of Fig. 12b: MNO and
// MVNO split the cell 50/50; the MNO runs a fair (equal-share) policy over
// its 15 UEs while the MVNO runs a group-based policy (9 premium UEs get
// 70% of the MVNO quota, 6 secondary UEs the rest). The result is the CDF
// of per-UE throughput for each operator.
type Fig12bResult struct {
	MNOCDF       *metrics.CDF
	PremiumCDF   *metrics.CDF
	SecondaryCDF *metrics.CDF
}

// ID implements Result.
func (*Fig12bResult) ID() string { return "fig12b" }

func (r *Fig12bResult) String() string {
	t := newTable("Fig 12b: per-UE throughput CDF by scheduling policy (kb/s)")
	t.row("population", "p10", "median", "p90")
	row := func(name string, c *metrics.CDF) {
		t.row(name, f1(c.Quantile(0.1)), f1(c.Quantile(0.5)), f1(c.Quantile(0.9)))
	}
	row("MNO (fair)", r.MNOCDF)
	row("MVNO premium", r.PremiumCDF)
	row("MVNO secondary", r.SecondaryCDF)
	return t.String()
}

func runFig12b(scale float64) Result {
	seconds := 10 * scale
	// Groups: 0 = MNO (15 UEs), 1 = MVNO premium (9), 2 = MVNO secondary (6).
	var specs []sim.UESpec
	for i := 0; i < 15; i++ {
		specs = append(specs, sim.UESpec{
			IMSI: uint64(100 + i), Channel: radio.Fixed(10), Group: 0,
			DL: ue.NewFullBuffer(),
		})
	}
	for i := 0; i < 9; i++ {
		specs = append(specs, sim.UESpec{
			IMSI: uint64(200 + i), Channel: radio.Fixed(10), Group: 1,
			DL: ue.NewFullBuffer(),
		})
	}
	for i := 0; i < 6; i++ {
		specs = append(specs, sim.UESpec{
			IMSI: uint64(300 + i), Channel: radio.Fixed(10), Group: 2,
			DL: ue.NewFullBuffer(),
		})
	}
	o := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &o}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1, UEs: specs,
	})
	// Slicer: MNO 50%; MVNO's 50% split 70/30 between premium and
	// secondary tiers => groups get [0.5, 0.35, 0.15] of the cell.
	must(s.Nodes[0].Agent.Reconfigure(
		"mac:\n  dl_ue_sched:\n    behavior: slice-rr\n    parameters:\n      rb_share: [0.5, 0.35, 0.15]\n"))
	s.WaitAttached(3000)

	before := make([]uint64, len(specs))
	for i := range specs {
		before[i] = s.Report(0, i).DLDelivered
	}
	s.RunSeconds(seconds)
	res := &Fig12bResult{
		MNOCDF: &metrics.CDF{}, PremiumCDF: &metrics.CDF{}, SecondaryCDF: &metrics.CDF{},
	}
	for i := range specs {
		kbps := float64(s.Report(0, i).DLDelivered-before[i]) * 8 / 1000 / seconds
		switch specs[i].Group {
		case 0:
			res.MNOCDF.Add(kbps)
		case 1:
			res.PremiumCDF.Add(kbps)
		case 2:
			res.SecondaryCDF.Add(kbps)
		}
	}
	return res
}

func init() {
	register("fig12a", runFig12a)
	register("fig12b", runFig12b)
}
