package apps_test

import (
	"testing"

	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/ue"
)

// twoCellWalk builds the canonical mobility scenario: two cells 1 km
// apart, one UE walking from deep inside cell 1 to deep inside cell 2,
// with its CQI and neighbour measurements derived from the shared radio
// map. Returns the sim and the mobility manager (registered).
func twoCellWalk(workers int, speedMps float64) (*sim.Sim, *apps.MobilityManager) {
	rmap := radio.NewMap(
		radio.Site{ENB: 1, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
		radio.Site{ENB: 2, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 1000}, PowerDBm: 43}},
	)
	walker := &radio.Waypoint{
		Path:     []radio.Point{{X: 100}, {X: 900}},
		SpeedMps: speedMps,
	}
	opts := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &opts, Workers: workers},
		sim.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: []sim.UESpec{{
			IMSI:    100,
			Channel: radio.NewGeoChannel(rmap, walker, 1),
			DL:      ue.NewCBR(600),
		}}},
		sim.ENBSpec{ID: 2, Agent: true, Seed: 2},
	)
	mm := apps.NewMobilityManager()
	s.Master.Register(mm, 5)
	return s, mm
}

// The headline path: a walking UE crosses the cell border, the serving
// agent raises an A3 report, the manager commands the handover, the sim
// migrates the UE, and the target agent confirms — with traffic flowing
// throughout.
func TestMobilityManagerExecutesHandover(t *testing.T) {
	// 80 m/s compresses the 800 m walk into 10 simulated seconds.
	s, mm := twoCellWalk(1, 80)
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	s.RunSeconds(10)

	hos := s.Handovers()
	if len(hos) == 0 {
		t.Fatal("no handover executed for a UE that crossed the cell border")
	}
	if hos[0].IMSI != 100 || hos[0].From != 1 || hos[0].To != 2 {
		t.Errorf("first handover = %+v, want IMSI 100 moving 1 -> 2", hos[0])
	}
	if mm.Completed() == 0 {
		t.Error("manager saw no HandoverComplete")
	}
	if got := mm.InFlight(); got != 0 {
		t.Errorf("%d handovers still in flight at end of run", got)
	}
	rep, enbID, ok := s.ReportByIMSI(100)
	if !ok || enbID != 2 {
		t.Fatalf("UE ended at eNB %d (ok=%v), want 2", enbID, ok)
	}
	if rep.State.String() != "connected" {
		t.Errorf("UE state after handover = %v", rep.State)
	}
	if rep.DLDelivered == 0 {
		t.Error("no downlink delivered across the walk")
	}
	// The RIB must reflect the migration: the UE lives under agent 2.
	rib := s.Master.RIB()
	if n := rib.UECount(1); n != 0 {
		t.Errorf("RIB still holds %d UEs under the source agent", n)
	}
	if n := rib.UECount(2); n != 1 {
		t.Errorf("RIB holds %d UEs under the target agent, want 1", n)
	}
}

// A static UE deep inside its serving cell must never trigger a handover.
func TestMobilityManagerStableWhenStatic(t *testing.T) {
	rmap := radio.NewMap(
		radio.Site{ENB: 1, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
		radio.Site{ENB: 2, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 1000}, PowerDBm: 43}},
	)
	opts := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &opts},
		sim.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: []sim.UESpec{{
			IMSI:    100,
			Channel: radio.NewGeoChannel(rmap, radio.Static(radio.Point{X: 150}), 1),
			DL:      ue.NewCBR(400),
		}}},
		sim.ENBSpec{ID: 2, Agent: true, Seed: 2},
	)
	mm := apps.NewMobilityManager()
	s.Master.Register(mm, 5)
	s.WaitAttached(500)
	s.RunSeconds(2)
	if n := mm.InFlight() + mm.Completed() + mm.Expired() + mm.Canceled() + mm.Failed(); n != 0 {
		t.Errorf("%d spurious handover commands for a static center-cell UE", n)
	}
	if len(s.Handovers()) != 0 {
		t.Error("spurious handovers executed")
	}
}

// With a single agent there is nowhere to go: no decisions, no commands.
func TestMobilityManagerSingleAgentNoOp(t *testing.T) {
	rmap := radio.NewMap(
		radio.Site{ENB: 1, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
	)
	opts := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &opts},
		sim.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: []sim.UESpec{{
			IMSI:    100,
			Channel: radio.NewGeoChannel(rmap, radio.Static(radio.Point{X: 2000}), 1),
		}}},
	)
	mm := apps.NewMobilityManager()
	s.Master.Register(mm, 5)
	s.WaitAttached(500)
	s.RunSeconds(0.5)
	if n := mm.InFlight() + mm.Completed() + mm.Expired() + mm.Canceled() + mm.Failed(); n != 0 {
		t.Errorf("%d handover commands without candidates", n)
	}
}

// The gray-failure acceptance gate, end to end: the target cell's agent
// wedges while its echo responder keeps answering, the health monitor
// marks it Suspect within the configured staleness budget, and from that
// point the walking UE gets no handover command into the sick cell. After
// the agent resumes and holds healthy, the deferred handover goes through.
func TestStalledCellExcludedFromHandover(t *testing.T) {
	rmap := radio.NewMap(
		radio.Site{ENB: 1, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
		radio.Site{ENB: 2, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 1000}, PowerDBm: 43}},
	)
	walker := &radio.Waypoint{
		Path:     []radio.Point{{X: 100}, {X: 900}},
		SpeedMps: 80,
	}
	opts := controller.DefaultOptions()
	opts.StatsPeriodTTI = 20
	opts.EchoPeriodTTI = 20
	opts.EchoMissBudget = 50 // echoes keep flowing; liveness must NOT fire
	opts.HealthPeriodTTI = 10
	opts.HealthDegradedTTI = 60
	opts.HealthSuspectTTI = 150
	opts.HealthRecoverTTI = 100
	s := sim.MustNew(sim.Config{Master: &opts},
		sim.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: []sim.UESpec{{
			IMSI:    100,
			Channel: radio.NewGeoChannel(rmap, walker, 1),
			DL:      ue.NewCBR(600),
		}}},
		sim.ENBSpec{ID: 2, Agent: true, Seed: 2},
	)
	mm := apps.NewMobilityManager()
	s.Master.Register(mm, 5)
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	s.Run(100) // settle: reports flowing, both shards Healthy

	// Wedge the target cell's agent. Echo replies continue (the gray
	// part), so detection must come from report staleness.
	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultAgentStall, ENB: 2})
	budget := opts.HealthSuspectTTI + opts.StatsPeriodTTI + opts.HealthPeriodTTI
	detected := -1
	for i := 0; i < budget+50; i++ {
		s.Step()
		if s.Master.AgentHealth(2) >= controller.Suspect {
			detected = i + 1
			break
		}
	}
	if detected < 0 {
		t.Fatal("stalled agent never marked Suspect")
	}
	if detected > budget {
		t.Errorf("Suspect after %d TTIs, want within %d", detected, budget)
	}
	if !s.Master.RIB().Connected(2) {
		t.Fatal("session died outright — the failure is not gray")
	}

	// Walk the UE across the border: A3 reports fire, but the manager
	// must not command a handover into the Suspect cell.
	s.RunSeconds(10)
	if n := len(s.Handovers()); n != 0 {
		t.Fatalf("%d handovers executed into a Suspect cell", n)
	}
	if _, enbID, _ := s.ReportByIMSI(100); enbID != 1 {
		t.Fatalf("UE migrated to eNB %d while the target was Suspect", enbID)
	}

	// Recovery: the agent resumes, holds healthy for the recovery window,
	// and the still-pending border crossing finally executes.
	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultAgentResume, ENB: 2})
	recovered := -1
	for i := 0; i < 1000; i++ {
		s.Step()
		if s.Master.AgentHealth(2) == controller.Healthy {
			recovered = i + 1
			break
		}
	}
	if recovered < 0 {
		t.Fatal("resumed agent never recovered to Healthy")
	}
	s.RunSeconds(3)
	hos := s.Handovers()
	if len(hos) == 0 {
		t.Fatal("no handover after the target recovered")
	}
	if hos[0].IMSI != 100 || hos[0].To != 2 {
		t.Errorf("handover = %+v, want IMSI 100 into eNB 2", hos[0])
	}
}

// The load-balancing policy must divert a handover away from a loaded
// target when the RSRP edge is small, while the default policy follows
// signal strength alone.
func TestTargetPolicies(t *testing.T) {
	rmap := radio.NewMap(
		radio.Site{ENB: 1, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
		radio.Site{ENB: 2, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 950}, PowerDBm: 43}},
		radio.Site{ENB: 3, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 1100}, PowerDBm: 43}},
	)
	// eNB 2 is closer (stronger) but carries four UEs; eNB 3 is empty.
	loaded := func(i int) sim.UESpec {
		return sim.UESpec{
			IMSI:    uint64(200 + i),
			Channel: radio.NewGeoChannel(rmap, radio.Static(radio.Point{X: 950}), 2),
		}
	}
	opts := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &opts},
		sim.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: []sim.UESpec{{
			IMSI:    100,
			Channel: radio.NewGeoChannel(rmap, radio.Static(radio.Point{X: 800}), 1),
		}}},
		sim.ENBSpec{ID: 2, Agent: true, Seed: 2, UEs: []sim.UESpec{
			loaded(0), loaded(1), loaded(2), loaded(3),
		}},
		sim.ENBSpec{ID: 3, Agent: true, Seed: 3},
	)
	s.WaitAttached(500)
	s.RunSeconds(0.5) // let stats populate the RIB
	rib := s.Master.RIB()

	rep := &protocol.MeasReport{
		RNTI: 0x46, IMSI: 100, Cell: 0,
		ServingRSRPdBm: -105,
		Neighbors: []protocol.NeighborMeas{
			{ENB: 2, Cell: 0, RSRPdBm: -90},
			{ENB: 3, Cell: 0, RSRPdBm: -93},
		},
	}
	if enb, _, ok := (apps.StrongestNeighbor{}).Pick(rib, 1, rep); !ok || enb != 2 {
		t.Errorf("StrongestNeighbor picked %d (ok=%v), want 2", enb, ok)
	}
	if enb, _, ok := (apps.LoadBalanced{LoadWeight: 2}).Pick(rib, 1, rep); !ok || enb != 3 {
		t.Errorf("LoadBalanced picked %d (ok=%v), want 3 (4 UEs on eNB 2)", enb, ok)
	}
	// With a negligible weight the signal wins again.
	if enb, _, ok := (apps.LoadBalanced{LoadWeight: 0.1}).Pick(rib, 1, rep); !ok || enb != 2 {
		t.Errorf("LoadBalanced(0.1) picked %d (ok=%v), want 2", enb, ok)
	}
}
