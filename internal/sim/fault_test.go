package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/transport"
)

// faultWorld builds eNodeB 1 with an agent and one attached idle UE, and
// eNodeB 2 without an agent, under a master when linked. Without a master
// eNodeB 1's agent has no control channel.
func faultWorld(t *testing.T, linked bool) *Sim {
	t.Helper()
	cfg := Config{}
	if linked {
		cfg.Master = opts()
	}
	s, err := New(cfg,
		ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: []UESpec{{IMSI: 100, Channel: radio.Fixed(12)}}},
		ENBSpec{ID: 2, Seed: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !s.WaitAttached(500) {
		t.Fatal("UE did not attach")
	}
	s.Run(50)
	return s
}

// fire schedules f at the current subframe and steps once.
func fire(s *Sim, f Fault) {
	f.At = s.Now()
	s.InjectFaults(f)
	s.Step()
}

// stallWith stalls eNodeB 1's agent, has the master side of its control
// channel send it one policy document per doc, and steps until the agent's
// backlog holds all of them.
func stallWith(t *testing.T, s *Sim, docs ...string) *Node {
	t.Helper()
	n := s.byENB[1]
	fire(s, Fault{Kind: FaultAgentStall, ENB: 1})
	for _, doc := range docs {
		if err := n.link.mEp.Send(protocol.New(1, s.Now(), &protocol.PolicyReconf{Doc: doc})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100 && held(n) < len(docs); i++ {
		s.Step()
	}
	if !n.Agent.Stalled() || held(n) != len(docs) {
		t.Fatalf("stalled %v with %d held, want %d held", n.Agent.Stalled(), held(n), len(docs))
	}
	return n
}

// held is how many messages a node's stalled agent holds: none without a
// control channel.
func held(n *Node) int {
	if n.link == nil {
		return 0
	}
	return len(n.link.stallQ)
}

// engineState is what a fault changes outside the agent: which nodes are
// awake or filed to wake, and each eNodeB's clock.
type engineState struct {
	awake  []int32
	filed  []int32
	clocks []lte.Subframe
}

func snapshot(s *Sim) engineState {
	st := engineState{awake: s.awake.appendTo(nil), filed: slices.Clone(s.cal.pos)}
	for _, n := range s.Nodes {
		st.clocks = append(st.clocks, n.ENB.Now())
	}
	return st
}

// TestFaultEdgeCases pins InjectFaults at its edges: what happens to a
// stalled agent's backlog, the targets a fault cannot reach, and a fault
// scheduled in the past.
func TestFaultEdgeCases(t *testing.T) {
	const (
		docA = "rrc:\n  handover_hysteresis_db: 5\n  time_to_trigger_tti: 80\n"
		docB = "rrc:\n  handover_hysteresis_db: 6\n"
	)
	t.Run("restart drops the held backlog", func(t *testing.T) {
		s := faultWorld(t, true)
		n := stallWith(t, s, docA)
		fire(s, Fault{Kind: FaultAgentRestart, ENB: 1})
		s.Run(20)
		if n.Agent.Stalled() || held(n) != 0 {
			t.Fatalf("after restart: stalled %v, %d held", n.Agent.Stalled(), held(n))
		}
		if h := n.Agent.RRC().Hysteresis(); h != 3 {
			t.Errorf("hysteresis %g: the dropped policy was applied", h)
		}
	})
	t.Run("resume applies the backlog in arrival order", func(t *testing.T) {
		s := faultWorld(t, true)
		n := stallWith(t, s, docA, docB)
		if h := n.Agent.RRC().Hysteresis(); h != 3 {
			t.Fatalf("hysteresis %g while stalled", h)
		}
		fire(s, Fault{Kind: FaultAgentResume, ENB: 1})
		if n.Agent.Stalled() || held(n) != 0 {
			t.Fatalf("after resume: stalled %v, %d held", n.Agent.Stalled(), held(n))
		}
		if h, ttt := n.Agent.RRC().Hysteresis(), n.Agent.RRC().TimeToTrigger(); h != 6 || ttt != 80 {
			t.Errorf("hysteresis %g, time to trigger %d; want 6 and 80", h, ttt)
		}
	})
	t.Run("an overdue fault fires at the next step", func(t *testing.T) {
		s := faultWorld(t, true)
		s.InjectFaults(Fault{At: s.Now() - 10, Kind: FaultAgentStall, ENB: 1})
		if s.byENB[1].Agent.Stalled() {
			t.Fatal("fault fired before the next step")
		}
		s.Step()
		if !s.byENB[1].Agent.Stalled() {
			t.Fatal("overdue fault did not fire in the next step")
		}
	})

	netem := &transport.Netem{OneWayTTI: 5}
	kinds := []FaultKind{FaultLinkCut, FaultLinkRestore, FaultAgentRestart, FaultNetemSet, FaultAgentStall, FaultAgentResume}
	type noop struct {
		linked bool
		f      Fault
	}
	noops := []noop{{false, Fault{Kind: FaultAgentResume, ENB: 1}}} // not stalled
	for _, k := range kinds {
		noops = append(noops,
			noop{true, Fault{Kind: k, ENB: 9, ToMaster: netem, ToAgent: netem}}, // unknown eNodeB
			noop{true, Fault{Kind: k, ENB: 2, ToMaster: netem, ToAgent: netem}}, // no agent
		)
	}
	for _, k := range []FaultKind{FaultLinkCut, FaultLinkRestore, FaultNetemSet} {
		noops = append(noops, noop{false, Fault{Kind: k, ENB: 1, ToMaster: netem, ToAgent: netem}}) // no control channel
	}
	for _, c := range noops {
		t.Run(fmt.Sprintf("%v on eNodeB %d linked %v is a no-op", c.f.Kind, c.f.ENB, c.linked), func(t *testing.T) {
			s := faultWorld(t, c.linked)
			before := snapshot(s)
			s.applyFault(c.f)
			if after := snapshot(s); !reflect.DeepEqual(after, before) {
				t.Errorf("engine state moved:\n got %+v\nwant %+v", after, before)
			}
			if n := s.byENB[1]; n.Agent.Stalled() || held(n) != 0 {
				t.Errorf("agent 1 stalled %v with %d held", n.Agent.Stalled(), held(n))
			}
		})
	}
}
