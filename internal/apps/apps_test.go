package apps_test

import (
	"testing"

	"flexran/internal/agent"
	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/dash"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
	"flexran/internal/sim"
	"flexran/internal/transport"
	"flexran/internal/ue"
)

func masterOpts() *controller.Options {
	o := controller.DefaultOptions()
	return &o
}

func TestRemoteSchedulerDrivesThroughput(t *testing.T) {
	s := sim.MustNew(sim.Config{Master: masterOpts()}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Fixed(15), DL: ue.NewFullBuffer()}},
	})
	rs := apps.NewRemoteScheduler(3, sched.NewRoundRobin())
	s.Master.Register(rs, 100)
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	// Move the agent to remote mode.
	if err := s.Nodes[0].Agent.Reconfigure("mac:\n  dl_ue_sched:\n    behavior: remote\n"); err != nil {
		t.Fatal(err)
	}
	before := s.DeliveredDL(0)
	s.RunSeconds(2)
	mbps := float64(s.DeliveredDL(0)-before) * 8 / 1e6 / 2
	if mbps < 20 {
		t.Errorf("remote-scheduled rate = %.1f Mb/s", mbps)
	}
	if rs.Sent == 0 {
		t.Error("no commands sent")
	}
}

func TestRemoteSchedulerMissesAllDeadlinesWhenAheadTooSmall(t *testing.T) {
	// RTT 20 ms, ahead 2 subframes: every decision arrives too late
	// (the Fig. 9 lower triangle).
	s := sim.MustNew(sim.Config{Master: masterOpts()}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		ToMaster: transport.Netem{OneWayTTI: 10}, ToAgent: transport.Netem{OneWayTTI: 10},
		UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Fixed(15), DL: ue.NewFullBuffer()}},
	})
	rs := apps.NewRemoteScheduler(2, sched.NewRoundRobin())
	s.Master.Register(rs, 100)
	s.Nodes[0].Agent.Reconfigure("mac:\n  dl_ue_sched:\n    behavior: remote\n")
	s.RunSeconds(3)
	if d := s.DeliveredDL(0); d != 0 {
		t.Errorf("delivered %d bytes despite hopeless deadline", d)
	}
	if s.Nodes[0].ENB.Connected(s.Nodes[0].RNTIs[0]) {
		t.Error("UE attached despite unschedulable control loop")
	}
}

func TestMonitorCollectsSeries(t *testing.T) {
	s := sim.MustNew(sim.Config{Master: masterOpts()}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Fixed(12), DL: ue.NewCBR(3000)}},
	})
	mon := apps.NewMonitor(100)
	s.Master.Register(mon, 0)
	s.WaitAttached(500)
	s.RunSeconds(2)
	series := mon.RateSeries(1)
	if series == nil || series.Len() < 10 {
		t.Fatalf("rate series = %+v", series)
	}
	if series.Max() < 2000 {
		t.Errorf("peak sampled rate = %.0f kb/s, want ~3000", series.Max())
	}
	if mon.Events() == 0 {
		t.Error("no events observed")
	}
}

// TestMonitorSeriesAreBounded: a monitor sampling for longer than its
// window keeps the newest MonitorWindow samples, and RateSeries hands out
// a copy the next sample does not move.
func TestMonitorSeriesAreBounded(t *testing.T) {
	mon := apps.NewMonitor(1)
	mon.OnWatch(nil, controller.WatchEvent{Kind: controller.WatchStats, ENB: 1, DLKbps: 7})
	const samples = 3 * apps.MonitorWindow
	for c := range lte.Subframe(samples) {
		mon.OnTick(nil, c)
	}
	series := mon.RateSeries(1)
	if series.Len() != apps.MonitorWindow || len(series.T) != apps.MonitorWindow {
		t.Fatalf("%d samples after %d cycles, want the newest %d", series.Len(), samples, apps.MonitorWindow)
	}
	if first, last := series.T[0], series.T[len(series.T)-1]; first != lte.Subframe(samples-apps.MonitorWindow).Seconds() ||
		last != lte.Subframe(samples-1).Seconds() {
		t.Errorf("window spans %v..%v s", first, last)
	}
	mon.OnTick(nil, samples)
	if got := series.T[len(series.T)-1]; got != lte.Subframe(samples-1).Seconds() {
		t.Errorf("a later sample moved the returned copy to %v s", got)
	}
}

func TestMECAssistRecommendations(t *testing.T) {
	s := sim.MustNew(sim.Config{Master: masterOpts()}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Fixed(10)}},
	})
	mec := apps.NewMECAssist()
	s.Master.Register(mec, 0)
	s.WaitAttached(500)
	s.RunSeconds(1)
	rnti := s.Nodes[0].RNTIs[0]
	if got := mec.SmoothedCQI(1, rnti); got < 9.5 || got > 10.5 {
		t.Errorf("smoothed CQI = %v, want ~10", got)
	}
	rec, ok := mec.Recommend(1, rnti, dash.Ladder4K)
	if !ok || rec != 7.3 {
		t.Errorf("recommendation = %v, %v (want 7.3: the Table 2 mapping)", rec, ok)
	}
	// Unknown UE: no recommendation.
	if _, ok := mec.Recommend(1, 9999, dash.Ladder4K); ok {
		t.Error("recommendation for unknown UE")
	}
}

func TestMECAssistTracksChannelChanges(t *testing.T) {
	// CQI drops 10 -> 4 at 2 s: the recommendation must follow.
	s := sim.MustNew(sim.Config{Master: masterOpts()}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Schedule{{At: 0, CQI: 10}, {At: 2000, CQI: 4}}}},
	})
	mec := apps.NewMECAssist()
	s.Master.Register(mec, 0)
	s.WaitAttached(500)
	s.RunSeconds(1.5)
	rnti := s.Nodes[0].RNTIs[0]
	recHigh, _ := mec.Recommend(1, rnti, dash.Ladder4K)
	s.RunSeconds(3)
	recLow, _ := mec.Recommend(1, rnti, dash.Ladder4K)
	if recHigh != 7.3 {
		t.Errorf("high-CQI rec = %v", recHigh)
	}
	if recLow != 2.9 {
		t.Errorf("low-CQI rec = %v (CQI 4 -> 3.3 Mb/s TCP -> 2.9)", recLow)
	}
}

func TestEICICCoordinatorGrantsIdleABS(t *testing.T) {
	// Macro with backlog, small cell idle: the optimized coordinator must
	// grant ABS subframes to the macro.
	s := sim.MustNew(sim.Config{Master: masterOpts()},
		sim.ENBSpec{
			ID: 1, Agent: true, Seed: 1,
			UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Fixed(12), DL: ue.NewFullBuffer()}},
		},
		sim.ENBSpec{
			ID: 2, Agent: true, Seed: 2,
			UEs: []sim.UESpec{{IMSI: 200, Channel: radio.Fixed(12)}}, // idle
		},
	)
	coord := apps.NewEICIC(1, []lte.ENBID{2}, 4, true)
	s.Master.Register(coord, 100)
	s.WaitAttached(500)

	// Install the macro ABS switch: local RR outside ABS, remote stub in ABS.
	mac := s.Nodes[0].Agent.MAC()
	sw := sched.NewABSSwitch("eicic-macro", sched.ABSPattern(4),
		sched.NewRoundRobin(), mac.RemoteStub(agent.OpDLUESched))
	if err := mac.InstallLocal(agent.OpDLUESched, "eicic-macro", sw); err != nil {
		t.Fatal(err)
	}
	if err := mac.Activate(agent.OpDLUESched, "eicic-macro"); err != nil {
		t.Fatal(err)
	}
	s.RunSeconds(2)
	if coord.Granted == 0 {
		t.Error("no ABS granted to the macro despite idle small cell")
	}
	applied, _ := mac.StubStats(agent.OpDLUESched)
	if applied == 0 {
		t.Error("granted decisions never applied")
	}
}

func TestEICICCoordinatorRespectsSmallCellPriority(t *testing.T) {
	// Small cell backlogged: no grants.
	s := sim.MustNew(sim.Config{Master: masterOpts()},
		sim.ENBSpec{
			ID: 1, Agent: true, Seed: 1,
			UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Fixed(12), DL: ue.NewFullBuffer()}},
		},
		sim.ENBSpec{
			ID: 2, Agent: true, Seed: 2,
			UEs: []sim.UESpec{{IMSI: 200, Channel: radio.Fixed(12), DL: ue.NewFullBuffer()}},
		},
	)
	coord := apps.NewEICIC(1, []lte.ENBID{2}, 4, true)
	s.Master.Register(coord, 100)
	s.WaitAttached(500)
	s.RunSeconds(2)
	if coord.Granted != 0 {
		t.Errorf("granted %d ABS despite small-cell backlog", coord.Granted)
	}
}

// TestMobilityManagerCancelsInflightOnAgentDown covers the mid-handover
// disconnect: an agent dies between the HandoverCommand and the
// HandoverComplete. Before the AgentDown hook, the in-flight entry (and
// with it the UE's eligibility) leaked until CommandTimeoutTTI; now it is
// retired the cycle the disconnect is dispatched, and the UE's next A3
// report immediately re-routes it.
func TestMobilityManagerCancelsInflightOnAgentDown(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	mm := apps.NewMobilityManager()
	m.Register(mm, 5)

	mkSession := func(enb lte.ENBID) *controller.AgentSession {
		s := m.HandleAgentSession(func(*protocol.Message) error { return nil })
		s.Deliver(protocol.New(enb, 0, &protocol.Hello{
			Version: protocol.ProtocolVersion, Epoch: 1,
			Config: protocol.ENBConfig{ID: enb, Cells: []protocol.CellConfig{{Cell: 0}}},
		}))
		return s
	}
	serving, target := mkSession(1), mkSession(2)
	m.Tick()

	report := func(imsi uint64) *protocol.Message {
		return protocol.New(1, 1, &protocol.MeasReport{
			RNTI: 0x46, IMSI: imsi, Cell: 0,
			ServingRSRPdBm: -100, ServingRSRQdB: -12,
			Neighbors: []protocol.NeighborMeas{{ENB: 2, Cell: 0, RSRPdBm: -90, RSRQdB: -8}},
		})
	}
	serving.Deliver(report(4242))
	m.Tick()
	if mm.InFlight() != 1 {
		t.Fatalf("in-flight after A3 report = %d, want 1", mm.InFlight())
	}

	// The target dies between command and completion.
	target.Close()
	m.Tick()
	if mm.InFlight() != 0 || mm.Canceled() != 1 {
		t.Fatalf("after target down: inflight=%d canceled=%d, want 0/1",
			mm.InFlight(), mm.Canceled())
	}
	// A late completion for the canceled entry is absorbed gracefully.
	targetAgain := mkSession(2)
	targetAgain.Deliver(protocol.New(2, 2, &protocol.HandoverComplete{
		RNTI: 0x52, IMSI: 4242, Cell: 0, SourceENB: 1, SourceRNTI: 0x46,
	}))
	m.Tick()
	if mm.Completed() != 0 {
		t.Errorf("canceled handover counted as completed")
	}

	// The UE re-armed: with the target back up, the next report re-routes
	// it instead of waiting out CommandTimeoutTTI.
	serving.Deliver(report(4242))
	m.Tick()
	if mm.InFlight() != 1 {
		t.Errorf("re-armed UE not re-routed: inflight=%d", mm.InFlight())
	}

	// Serving-side death cancels too.
	m.DisconnectAgent(1)
	m.Tick()
	if mm.InFlight() != 0 || mm.Canceled() != 2 {
		t.Errorf("after serving down: inflight=%d canceled=%d, want 0/2",
			mm.InFlight(), mm.Canceled())
	}
}

// A target that turns Suspect mid-handover gets its in-flight entries
// canceled, and new A3 reports stop routing into it while it is sick.
func TestMobilityManagerCancelsInflightOnSuspect(t *testing.T) {
	opts := controller.DefaultOptions()
	opts.EchoPeriodTTI = 0 // isolate the report-staleness signal
	opts.StatsPeriodTTI = 10
	opts.HealthPeriodTTI = 5
	opts.HealthDegradedTTI = 20
	opts.HealthSuspectTTI = 40
	opts.HealthRecoverTTI = 50
	m := controller.NewMaster(opts)
	mm := apps.NewMobilityManager()
	m.Register(mm, 5)

	mkSession := func(enb lte.ENBID) *controller.AgentSession {
		s := m.HandleAgentSession(func(*protocol.Message) error { return nil })
		s.Deliver(protocol.New(enb, 0, &protocol.Hello{
			Version: protocol.ProtocolVersion, Epoch: 1,
			Config: protocol.ENBConfig{ID: enb, Cells: []protocol.CellConfig{{Cell: 0}}},
		}))
		return s
	}
	serving := mkSession(1)
	mkSession(2)
	m.Tick()

	report := func() *protocol.Message {
		return protocol.New(1, 1, &protocol.MeasReport{
			RNTI: 0x46, IMSI: 4242, Cell: 0,
			ServingRSRPdBm: -100, ServingRSRQdB: -12,
			Neighbors: []protocol.NeighborMeas{{ENB: 2, Cell: 0, RSRPdBm: -90, RSRQdB: -8}},
		})
	}
	serving.Deliver(report())
	m.Tick()
	if mm.InFlight() != 1 {
		t.Fatalf("in-flight after A3 report = %d, want 1", mm.InFlight())
	}

	// No statistics arrive; staleness walks the sessions down the health
	// ladder, and the in-flight handover into eNB 2 is canceled the cycle
	// its target turns Suspect.
	for i := 0; i < 100 && mm.Canceled() == 0; i++ {
		m.Tick()
	}
	if mm.InFlight() != 0 || mm.Canceled() != 1 {
		t.Fatalf("after Suspect: inflight=%d canceled=%d, want 0/1",
			mm.InFlight(), mm.Canceled())
	}
	if m.AgentHealth(2) < controller.Suspect {
		t.Fatalf("target health = %v, want >= Suspect", m.AgentHealth(2))
	}
	// The UE re-armed, but a Suspect target draws no new command.
	serving.Deliver(report())
	m.Tick()
	if mm.InFlight() != 0 {
		t.Errorf("handover commanded into a Suspect target: inflight=%d", mm.InFlight())
	}
}

func TestEICICPlainModeNeverGrants(t *testing.T) {
	s := sim.MustNew(sim.Config{Master: masterOpts()},
		sim.ENBSpec{ID: 1, Agent: true, Seed: 1,
			UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Fixed(12), DL: ue.NewFullBuffer()}}},
		sim.ENBSpec{ID: 2, Agent: true, Seed: 2,
			UEs: []sim.UESpec{{IMSI: 200, Channel: radio.Fixed(12)}}},
	)
	coord := apps.NewEICIC(1, []lte.ENBID{2}, 4, false)
	s.Master.Register(coord, 100)
	s.WaitAttached(500)
	s.RunSeconds(1)
	if coord.Granted != 0 {
		t.Errorf("plain eICIC granted %d", coord.Granted)
	}
}
