package experiments

import (
	"testing"

	"flexran/internal/controller"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/transport"
	"flexran/internal/ue"
)

// Ablations: design-choice claims the paper makes in prose, asserted here.

// TestAblationReportPeriodHalvesOverhead checks §5.2.1: "by setting the
// periodicity of the MAC reports to 2 TTIs, this overhead could be
// reduced to almost half".
func TestAblationReportPeriodHalvesOverhead(t *testing.T) {
	statsRate := func(period int) float64 {
		o := controller.DefaultOptions()
		o.StatsPeriodTTI = period
		var specs []sim.UESpec
		for i := 0; i < 16; i++ {
			specs = append(specs, sim.UESpec{
				IMSI: uint64(100 + i), Channel: radio.Fixed(12), DL: ue.NewCBR(300),
			})
		}
		s := sim.MustNew(sim.Config{Master: &o},
			sim.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: specs})
		s.WaitAttached(2000)
		s.Nodes[0].AgentMeter().Reset()
		start := s.Now()
		s.RunSeconds(1)
		bytes := s.Nodes[0].AgentMeter().Bytes(protocol.CatStats)
		return float64(bytes) * 8 / 1e6 / float64(uint64(s.Now()-start)) * 1000
	}
	every1 := statsRate(1)
	every2 := statsRate(2)
	ratio := every2 / every1
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("period-2 reports = %.2fx of period-1 (%.2f vs %.2f Mb/s), want ~0.5",
			ratio, every2, every1)
	}
}

// TestAblationTriggeredReportsCutIdleOverhead checks the paper's §5.2.1
// suggestion that event-triggered instead of periodic transmissions
// reduce overhead: with idle UEs, triggered reporting must send almost
// nothing while periodic reporting keeps streaming.
func TestAblationTriggeredReportsCutIdleOverhead(t *testing.T) {
	statsBytes := func(mode protocol.StatsMode) int64 {
		o := controller.DefaultOptions()
		if mode != protocol.StatsPeriodic {
			// The default subscription is periodic: drop it and subscribe
			// explicitly, as an application would.
			o.StatsPeriodTTI = 0
		}
		s := sim.MustNew(sim.Config{Master: &o}, sim.ENBSpec{
			ID: 1, Agent: true, Seed: 1,
			UEs: []sim.UESpec{{IMSI: 1, Channel: radio.Fixed(12)}}, // no traffic
		})
		s.WaitAttached(2000)
		if mode != protocol.StatsPeriodic {
			req := &protocol.StatsRequest{ID: 1, Mode: mode, PeriodTTI: 1, Flags: protocol.StatsAll}
			if err := s.Master.Send(1, req); err != nil {
				t.Fatal(err)
			}
		}
		s.Nodes[0].AgentMeter().Reset()
		s.RunSeconds(1)
		return s.Nodes[0].AgentMeter().Bytes(protocol.CatStats)
	}
	periodic := statsBytes(protocol.StatsPeriodic)
	triggered := statsBytes(protocol.StatsTriggered)
	if triggered > periodic/10 {
		t.Errorf("triggered reports = %d bytes vs periodic %d, want <10%%", triggered, periodic)
	}
}

// TestControlChannelLossResilience injects 20% message loss on both
// directions of the control channel: the platform must keep operating —
// local VSFs keep scheduling, the RIB still converges from the reports
// that survive.
func TestControlChannelLossResilience(t *testing.T) {
	o := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &o}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		ToMaster: transport.Netem{LossProb: 0.2, Seed: 3},
		ToAgent:  transport.Netem{LossProb: 0.2, Seed: 4},
		UEs: []sim.UESpec{{
			IMSI: 1, Channel: radio.Fixed(12), DL: ue.NewFullBuffer(),
		}},
	})
	if !s.WaitAttached(3000) {
		t.Fatal("attach failed under loss (local scheduling must not depend on the master)")
	}
	s.RunSeconds(2)
	// Data plane unaffected: local scheduling serves at line rate.
	mbps := float64(s.Report(0, 0).DLDelivered) * 8 / 1e6 / float64(s.Now()) * 1000
	if mbps < 10 {
		t.Errorf("throughput under control loss = %.1f Mb/s", mbps)
	}
	// The RIB still converged from surviving reports.
	rib := s.Master.RIB()
	if !rib.Connected(1) {
		t.Fatal("agent never registered (hello lost without recovery)")
	}
	stats, ok := rib.UEStats(1, s.Nodes[0].RNTIs[0])
	if !ok || stats.CQI != 12 {
		t.Errorf("RIB stale under loss: %+v ok=%v", stats, ok)
	}
	sf, _ := rib.AgentSF(1)
	if s.Now()-sf > 50 {
		t.Errorf("agent time lag under loss = %d TTIs", s.Now()-sf)
	}
}
