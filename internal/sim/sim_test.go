package sim

import (
	"testing"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/transport"
	"flexran/internal/ue"
)

func opts() *controller.Options {
	o := controller.DefaultOptions()
	return &o
}

func TestScenarioBuildAndAttach(t *testing.T) {
	s, err := New(Config{Master: opts()}, ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []UESpec{
			{IMSI: 100, Channel: radio.Fixed(15), DL: ue.NewCBR(1000)},
			{IMSI: 101, Channel: radio.Fixed(10), DL: ue.NewCBR(1000)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.WaitAttached(500) {
		t.Fatal("UEs did not attach")
	}
	if s.Master.RIB().UECount(1) != 2 {
		t.Errorf("RIB UEs = %d", s.Master.RIB().UECount(1))
	}
}

// TestNodeStepsLikeTheEngine: a standalone node, injected and stepped by
// hand as the wall-clock agent loop does, serves every UE exactly as the
// engine serves the same spec. Its agent has no handover executor, so a
// handover command is refused.
func TestNodeStepsLikeTheEngine(t *testing.T) {
	spec := func() ENBSpec {
		return ENBSpec{ID: 1, Agent: true, Seed: 3, UEs: []UESpec{
			{IMSI: 100, Channel: radio.NewGaussMarkov(11, 0.99, 1.5, 1), DL: ue.NewCBR(2000)},
			{IMSI: 101, Channel: radio.Fixed(7), DL: ue.NewCBR(500), UL: ue.NewCBR(100)},
		}}
	}
	const ttis = 2000
	s := MustNew(Config{}, spec())
	s.Run(ttis)
	n, err := NewNode(spec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ttis; i++ {
		n.Inject(n.ENB.Now())
		n.ENB.Step()
	}
	for j, rnti := range n.RNTIs {
		got, _ := n.ENB.UEReport(rnti)
		want := s.Report(0, j)
		if got.DLDelivered == 0 || got.DLDelivered != want.DLDelivered || got.ULDelivered != want.ULDelivered {
			t.Errorf("UE %d: node delivered DL %d UL %d, engine DL %d UL %d", j,
				got.DLDelivered, got.ULDelivered, want.DLDelivered, want.ULDelivered)
		}
	}

	var detail string
	n.Agent.Connect(func(m *protocol.Message) error {
		if ack, ok := m.Payload.(*protocol.ControlAck); ok {
			detail = ack.Detail
		}
		return nil
	})
	n.Agent.Deliver(protocol.New(1, n.ENB.Now(), &protocol.HandoverCommand{RNTI: n.RNTIs[0], TargetENB: 2}))
	if detail != "agent: no handover executor attached" {
		t.Errorf("handover command answered %q, want the no-executor refusal", detail)
	}
}

// TestLiteralOptionsGetPeriodicFullReports: a master built from a bare
// Options literal that sets only StatsPeriodTTI subscribes its agents to
// periodic full reports, not to a one-off report of nothing.
func TestLiteralOptionsGetPeriodicFullReports(t *testing.T) {
	s := MustNew(Config{Master: &controller.Options{StatsPeriodTTI: 1}}, ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []UESpec{{IMSI: 100, Channel: radio.Fixed(12), DL: ue.NewCBR(500)}},
	})
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	// Room for every report of the window, so none is lost to overflow.
	w := s.Master.Watch(controller.WatchFilter{Kinds: controller.WatchStats}, 256)
	defer w.Cancel()
	meter := s.Nodes[0].AgentMeter()
	meter.Reset()
	s.Run(100)
	if n := meter.Messages(protocol.CatStats); n < 90 {
		t.Fatalf("agent sent %d reports in 100 TTIs, want >= 90", n)
	}
	applied := 0
	for len(w.Events()) > 0 {
		ev := <-w.Events()
		if ev.UEs != 1 {
			t.Fatalf("report at %v carries %d UE rows, want 1", ev.SF, ev.UEs)
		}
		applied++
	}
	if applied < 90 {
		t.Fatalf("master applied %d reports in 100 TTIs, want >= 90", applied)
	}
	if st, ok := s.Master.RIB().UEStats(1, s.Nodes[0].RNTIs[0]); !ok || st.CQI != 12 {
		t.Errorf("RIB row = %+v (ok %v), want CQI 12", st, ok)
	}
}

func TestTrafficFlowsEndToEnd(t *testing.T) {
	s := MustNew(Config{Master: opts()}, ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []UESpec{{IMSI: 100, Channel: radio.Fixed(15), DL: ue.NewCBR(4000), UL: ue.NewCBR(500)}},
	})
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	s.RunSeconds(2)
	r := s.Report(0, 0)
	dl := float64(r.DLDelivered) * 8 / 1e6 / 2
	if dl < 3.5 || dl > 4.3 {
		t.Errorf("CBR 4 Mb/s delivered %.2f Mb/s", dl)
	}
	if r.ULDelivered == 0 {
		t.Error("no uplink delivered")
	}
	b, _ := s.EPC.Bearer(100)
	if b.DLAccepted == 0 {
		t.Error("EPC accounting empty")
	}
}

func TestVanillaModeWithoutMaster(t *testing.T) {
	s := MustNew(Config{}, ENBSpec{
		ID: 1, Agent: false, Seed: 1,
		UEs: []UESpec{{IMSI: 100, Channel: radio.Fixed(15), DL: ue.NewFullBuffer()}},
	})
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	s.RunSeconds(1)
	r := s.Report(0, 0)
	if r.DLDelivered == 0 {
		t.Error("vanilla eNodeB delivered nothing")
	}
	if s.Master != nil {
		t.Error("master created without config")
	}
}

func TestAgentWithoutMasterStillSchedules(t *testing.T) {
	// Agent-enabled but no master: local VSFs keep the cell running
	// (distributed mode of operation).
	s := MustNew(Config{}, ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []UESpec{{IMSI: 100, Channel: radio.Fixed(15), DL: ue.NewFullBuffer()}},
	})
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	s.RunSeconds(1)
	if s.Report(0, 0).DLDelivered == 0 {
		t.Error("agent-local scheduling delivered nothing")
	}
}

func TestSignalingMetersPopulated(t *testing.T) {
	s := MustNew(Config{Master: opts()}, ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []UESpec{{IMSI: 100, Channel: radio.Fixed(15), DL: ue.NewCBR(2000)}},
	})
	s.WaitAttached(500)
	s.RunSeconds(1)
	am := s.Nodes[0].AgentMeter()
	if am.Bytes(protocol.CatStats) == 0 {
		t.Error("no stats bytes metered")
	}
	if am.Bytes(protocol.CatSync) == 0 {
		t.Error("no sync bytes metered")
	}
	mm := s.Nodes[0].MasterMeter()
	if mm.TotalBytes() == 0 {
		t.Error("no master-to-agent bytes metered")
	}
}

func TestMultipleENBs(t *testing.T) {
	s := MustNew(Config{Master: opts()},
		ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: []UESpec{{IMSI: 100, Channel: radio.Fixed(12), DL: ue.NewCBR(1000)}}},
		ENBSpec{ID: 2, Agent: true, Seed: 2, UEs: []UESpec{{IMSI: 200, Channel: radio.Fixed(12), DL: ue.NewCBR(1000)}}},
		ENBSpec{ID: 3, Agent: true, Seed: 3, UEs: []UESpec{{IMSI: 300, Channel: radio.Fixed(12), DL: ue.NewCBR(1000)}}},
	)
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	s.RunSeconds(1)
	agents := s.Master.RIB().Agents()
	if len(agents) != 3 {
		t.Fatalf("agents = %v", agents)
	}
	for i := 0; i < 3; i++ {
		if s.DeliveredDL(i) == 0 {
			t.Errorf("eNodeB %d delivered nothing", i+1)
		}
	}
}

func TestNetemOnScenario(t *testing.T) {
	s := MustNew(Config{Master: opts()}, ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		ToMaster: transport.Netem{OneWayTTI: 10},
		ToAgent:  transport.Netem{OneWayTTI: 10},
		UEs:      []UESpec{{IMSI: 100, Channel: radio.Fixed(15)}},
	})
	s.Run(100)
	sf, ok := s.Master.RIB().AgentSF(1)
	if !ok {
		t.Fatal("agent never seen (messages lost?)")
	}
	lag := int(s.Now()) - int(sf)
	if lag < 9 {
		t.Errorf("lag = %d, want >= one-way delay", lag)
	}
}

func TestDuplicateIMSIRejected(t *testing.T) {
	_, err := New(Config{Master: opts()}, ENBSpec{
		ID: 1, Agent: true,
		UEs: []UESpec{
			{IMSI: 100, Channel: radio.Fixed(15)},
			{IMSI: 100, Channel: radio.Fixed(15)},
		},
	})
	if err == nil {
		t.Error("duplicate IMSI accepted")
	}
}

func TestDeterministicScenario(t *testing.T) {
	run := func() uint64 {
		s := MustNew(Config{Master: opts()}, ENBSpec{
			ID: 1, Agent: true, Seed: 7,
			UEs: []UESpec{{IMSI: 100, Channel: radio.NewGaussMarkov(9, 0.98, 2, 11), DL: ue.NewFullBuffer()}},
		})
		s.Run(3000)
		return s.DeliveredDL(0)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}

func TestSubframeAdvances(t *testing.T) {
	s := MustNew(Config{}, ENBSpec{ID: 1})
	s.Run(42)
	if s.Now() != lte.Subframe(42) {
		t.Errorf("Now = %v", s.Now())
	}
}
