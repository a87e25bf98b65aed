package sim_test

import (
	"reflect"
	"testing"

	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/transport"
)

// resilienceScenario builds a static two-eNodeB world with attached idle
// UEs: with no traffic and fixed channels, the data-plane state is frozen
// after attach, so RIB snapshots before and after an agent flap can be
// compared bit for bit.
func resilienceScenario(t *testing.T, opts controller.Options) *sim.Sim {
	t.Helper()
	s := sim.MustNew(sim.Config{Master: &opts, Workers: 1},
		sim.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: []sim.UESpec{
			{IMSI: 101, Channel: radio.Fixed(12)},
			{IMSI: 102, Channel: radio.Fixed(7)},
			{IMSI: 103, Channel: radio.Fixed(15)},
		}},
		sim.ENBSpec{ID: 2, Agent: true, Seed: 2, UEs: []sim.UESpec{
			{IMSI: 201, Channel: radio.Fixed(9)},
		}},
	)
	if !s.WaitAttached(2000) {
		t.Fatal("UEs failed to attach")
	}
	return s
}

// ribState flattens one agent's full RIB shard for exact comparison.
type ribState struct {
	Connected bool
	Config    protocol.ENBConfig
	Count     int
	UEs       []protocol.UEStats
}

func shardState(rib *controller.RIB, enb lte.ENBID) ribState {
	cfg, _ := rib.AgentConfig(enb)
	return ribState{
		Connected: rib.Connected(enb),
		Config:    cfg,
		Count:     rib.UECount(enb),
		UEs:       rib.UEsOf(enb),
	}
}

// TestKillAndReconnectConvergesInTwoCycles is the acceptance gate: after an
// agent restart, the master RIB must converge to the full pre-failure
// UE/cell/subscription state within 2 master cycles of the HelloAck —
// with periodic reporting disabled entirely, so the StateSnapshot is the
// only possible source.
func TestKillAndReconnectConvergesInTwoCycles(t *testing.T) {
	opts := controller.DefaultOptions()
	opts.StatsPeriodTTI = 0 // resync must carry the state on its own
	s := resilienceScenario(t, opts)
	rib := s.Master.RIB()

	// Settle, then seed the RIB via one flap so the reference state is a
	// snapshot of the frozen world (the connect-time snapshot predates
	// the attaches and has no UE statistics).
	s.Run(200)
	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultAgentRestart, ENB: 1})
	s.Run(10)
	want := shardState(rib, 1)
	if want.Count != 3 || !want.Connected {
		t.Fatalf("reference shard state: %+v", want)
	}

	// Kill and reconnect. The agent restarts with a bumped epoch at the
	// start of the next Step; with an unimpaired link the Hello is applied
	// (and acked) in that same Step's master cycle.
	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultAgentRestart, ENB: 1})
	s.Step() // cycle C: Hello applied, HelloAck + ResyncRequest sent
	helloAckCycle := s.Master.Cycle()
	if !rib.Connected(1) {
		t.Fatal("agent not re-welcomed in the restart step")
	}
	converged := -1
	for i := 0; i < 5; i++ {
		if reflect.DeepEqual(shardState(rib, 1), want) {
			converged = i
			break
		}
		s.Step()
	}
	switch {
	case converged < 0:
		t.Fatalf("RIB did not reconverge: got %+v\nwant %+v", shardState(rib, 1), want)
	case converged > 2:
		t.Errorf("converged %d cycles after HelloAck (cycle %d), want <= 2",
			converged, helloAckCycle)
	}
	// The untouched agent's shard never flinched.
	if got := shardState(rib, 2); got.Count != 1 || !got.Connected {
		t.Errorf("bystander shard disturbed: %+v", got)
	}
}

// TestReconnectStormSimConverges flaps one agent repeatedly — including
// back-to-back restarts with no settle time — and the RIB must converge to
// the exact pre-storm state. Runs under -race in CI.
func TestReconnectStormSimConverges(t *testing.T) {
	opts := controller.DefaultOptions()
	s := resilienceScenario(t, opts)
	rib := s.Master.RIB()
	s.Run(300)
	want := shardState(rib, 1)
	if want.Count != 3 {
		t.Fatalf("pre-storm state: %+v", want)
	}

	base := s.Now()
	s.InjectFaults(
		sim.Fault{At: base + 10, Kind: sim.FaultAgentRestart, ENB: 1},
		sim.Fault{At: base + 11, Kind: sim.FaultAgentRestart, ENB: 1}, // immediate re-flap
		sim.Fault{At: base + 40, Kind: sim.FaultLinkCut, ENB: 1},
		sim.Fault{At: base + 45, Kind: sim.FaultAgentRestart, ENB: 1}, // restart behind a cut link
		sim.Fault{At: base + 90, Kind: sim.FaultLinkRestore, ENB: 1},
		sim.Fault{At: base + 120, Kind: sim.FaultAgentRestart, ENB: 1},
		sim.Fault{At: base + 121, Kind: sim.FaultAgentRestart, ENB: 1},
	)
	s.Run(400)

	if got := shardState(rib, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("post-storm RIB diverged:\n got %+v\nwant %+v", got, want)
	}
	// Initial connect + 5 restarts + the restore's redial = epoch 7.
	if s.Nodes[0].Agent.Epoch() != 7 {
		t.Errorf("epoch after the storm = %d, want 7", s.Nodes[0].Agent.Epoch())
	}
}

// TestLinkCutHeartbeatDetectsAndResyncRecovers drives the liveness path
// end to end: a silent link cut must be detected by the master's Echo
// heartbeat within the miss budget (AgentDown, RIB disconnected), and the
// restore must bring the agent back with full state via resync (AgentUp).
func TestLinkCutHeartbeatDetectsAndResyncRecovers(t *testing.T) {
	opts := controller.DefaultOptions()
	opts.EchoPeriodTTI = 10
	opts.EchoMissBudget = 2
	s := resilienceScenario(t, opts)
	mm := apps.NewMobilityManager() // rides along: down/up events must not disturb it
	s.Master.Register(mm, 5)
	rib := s.Master.RIB()
	s.Run(100)
	want := shardState(rib, 1)

	cutAt := s.Now()
	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultLinkCut, ENB: 1})
	budgetTTIs := opts.EchoPeriodTTI * (opts.EchoMissBudget + 2)
	detected := -1
	for i := 0; i < budgetTTIs+20; i++ {
		s.Step()
		if !rib.Connected(1) {
			detected = int(s.Now() - cutAt)
			break
		}
	}
	if detected < 0 {
		t.Fatalf("link cut never detected within %d TTIs", budgetTTIs+20)
	}
	if detected > budgetTTIs {
		t.Errorf("heartbeat detection took %d TTIs, budget %d", detected, budgetTTIs)
	}

	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultLinkRestore, ENB: 1})
	s.Run(10)
	if got := shardState(rib, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("post-restore RIB diverged:\n got %+v\nwant %+v", got, want)
	}
}

// chaosScenario is the determinism scenario plus a scripted fault timeline:
// link cuts, restores, restarts and reconnect storms across half the
// eNodeBs — and gray impairments (bursty loss, duplication, reordering,
// corruption, stalls) on the other half — identical for every worker count.
func chaosScenario(workers int) *sim.Sim {
	s := detScenario(workers)
	s.InjectFaults(
		sim.Fault{At: 200, Kind: sim.FaultLinkCut, ENB: 1},
		sim.Fault{At: 400, Kind: sim.FaultLinkRestore, ENB: 1},
		sim.Fault{At: 300, Kind: sim.FaultAgentRestart, ENB: 3},
		sim.Fault{At: 301, Kind: sim.FaultAgentRestart, ENB: 3},
		sim.Fault{At: 500, Kind: sim.FaultLinkCut, ENB: 5},
		sim.Fault{At: 520, Kind: sim.FaultAgentRestart, ENB: 5},
		sim.Fault{At: 700, Kind: sim.FaultLinkRestore, ENB: 5},
		sim.Fault{At: 800, Kind: sim.FaultAgentRestart, ENB: 7},
		sim.Fault{At: 900, Kind: sim.FaultAgentRestart, ENB: 7},
		// Gray impairments: a mid-run switch to a heavily impaired uplink
		// on eNB 2, a control stall with resume on eNB 4, and a one-shot
		// transport freeze toward eNB 6.
		sim.Fault{At: 250, Kind: sim.FaultNetemSet, ENB: 2,
			ToMaster: &transport.Netem{
				OneWayTTI: 1, LossProb: 0.05, BurstLossProb: 0.8,
				BurstEnterProb: 0.05, BurstExitProb: 0.25,
				DupProb: 0.05, ReorderProb: 0.1, ReorderTTI: 2,
				CorruptProb: 0.02, Seed: 902,
			},
			ToAgent: &transport.Netem{OneWayTTI: 1, LossProb: 0.05, DupProb: 0.03, Seed: 903},
		},
		sim.Fault{At: 600, Kind: sim.FaultAgentStall, ENB: 4},
		sim.Fault{At: 850, Kind: sim.FaultAgentResume, ENB: 4},
		sim.Fault{At: 450, Kind: sim.FaultNetemSet, ENB: 6,
			ToAgent: &transport.Netem{StallTTI: 120, Seed: 906},
		},
	)
	return s
}

// TestChaosDeterminism: the failure-injection machinery must preserve the
// engine's bit-for-bit determinism guarantee — the same chaotic timeline
// stepped serially and with parallel pools leaves identical worlds.
func TestChaosDeterminism(t *testing.T) {
	const ttis = 1200
	ref := chaosScenario(1)
	ref.Run(ttis)
	want := snapshot(ref)

	// The storm must have actually downed and recovered agents: every
	// flapped eNodeB finishes the run connected with its UEs resynced —
	// and the gray-impaired ones (2: bursty loss, 4: stall+resume,
	// 6: transport freeze) hold their state through the impairment.
	for _, enb := range []lte.ENBID{1, 2, 3, 4, 5, 6, 7} {
		if want.RIBCount[enb] != 4 {
			t.Fatalf("eNB %d: RIB count %d after chaos, want 4", enb, want.RIBCount[enb])
		}
	}

	for _, workers := range []int{2, 4, 8} {
		s := chaosScenario(workers)
		s.Run(ttis)
		got := snapshot(s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%d diverged from serial engine under chaos", workers)
			if !reflect.DeepEqual(got.RIBUEs, want.RIBUEs) {
				t.Errorf("  RIB UE stats diverged")
			}
			if !reflect.DeepEqual(got.Meters, want.Meters) {
				t.Errorf("  signaling meters diverged")
			}
			if !reflect.DeepEqual(got.Reports, want.Reports) {
				t.Errorf("  UE reports diverged")
			}
		}
	}
}
