package broker_test

import (
	"slices"
	"testing"

	"flexran/internal/agent"
	"flexran/internal/apps/broker"
	"flexran/internal/controller"
	"flexran/internal/radio"
	"flexran/internal/sched"
	"flexran/internal/sim"
	"flexran/internal/slice"
	"flexran/internal/ue"
)

// shareWorld builds one agent eNodeB with a full-buffer UE in each of
// groups 0 and 1 and a non-work-conserving slicer active on its downlink,
// and runs the attach phase. The slicer is returned so a test can read
// the shares the agent actually holds.
func shareWorld(t *testing.T, o controller.Options, initial []float64) (*sim.Sim, *sched.Slicer) {
	t.Helper()
	s := sim.MustNew(sim.Config{Master: &o}, sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		UEs: []sim.UESpec{
			{IMSI: 100, Channel: radio.Fixed(10), Group: 0, DL: ue.NewFullBuffer()},
			{IMSI: 101, Channel: radio.Fixed(10), Group: 1, DL: ue.NewFullBuffer()},
		},
	})
	sl := sched.NewSlicer("test-slice", initial, false,
		func() sched.Scheduler { return sched.NewRoundRobin() })
	mac := s.Nodes[0].Agent.MAC()
	if err := mac.InstallLocal(agent.OpDLUESched, "test-slice", sl); err != nil {
		t.Fatal(err)
	}
	if err := mac.Activate(agent.OpDLUESched, "test-slice"); err != nil {
		t.Fatal(err)
	}
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	return s, sl
}

// counts is an actuator's outcome counters, for one-line comparisons.
type counts struct{ applied, deferred, lost int }

func TestScriptAppliesPlan(t *testing.T) {
	s, sl := shareWorld(t, controller.DefaultOptions(), []float64{0.7, 0.3})
	at := s.Now() + 1000
	script := broker.NewScript(1, []broker.ShareChange{{At: at, Shares: []float64{0.2, 0.8}}})
	s.Master.Register(script, 10)

	report := func() (uint64, uint64) { return s.Report(0, 0).DLDelivered, s.Report(0, 1).DLDelivered }
	before0, before1 := report()
	s.Run(int(at - s.Now()))
	mid0, mid1 := report()
	s.Run(2000)
	end0, end1 := report()

	if r := float64(mid0-before0) / float64(mid1-before1+1); r < 1.5 {
		t.Errorf("ratio before the change = %.2f, want ~7/3", r)
	}
	if r := float64(end0-mid0) / float64(end1-mid1+1); r > 0.5 {
		t.Errorf("ratio after the change = %.2f, want ~2/8", r)
	}
	if got := (counts{script.Applied, script.Deferred, script.Lost}); got != (counts{1, 0, 0}) {
		t.Errorf("applied/deferred/lost = %+v, want one push applied", got)
	}
	if got := sl.Shares(); !slices.Equal(got, []float64{0.2, 0.8}) {
		t.Errorf("agent shares = %v, want [0.2 0.8]", got)
	}
}

// TestScriptDefersAndReplays stalls the agent over two script points with
// the health monitor on: both are withheld while the eNodeB reads
// Suspect, and once it recovers only the newer one is pushed, once.
func TestScriptDefersAndReplays(t *testing.T) {
	o := controller.DefaultOptions()
	o.StatsPeriodTTI = 5
	o.HealthPeriodTTI = 10
	o.HealthDegradedTTI = 30
	o.HealthSuspectTTI = 60
	o.HealthRecoverTTI = 40
	initial := []float64{0.6, 0.4}
	s, sl := shareWorld(t, o, initial)
	rib := s.Master.RIB()
	base := s.Now()
	script := broker.NewScript(1, []broker.ShareChange{
		{At: base + 300, Shares: []float64{0.5, 0.5}},
		{At: base + 350, Shares: []float64{0.2, 0.8}},
	})
	s.Master.Register(script, 10)
	s.InjectFaults(
		sim.Fault{At: base + 10, Kind: sim.FaultAgentStall, ENB: 1},
		sim.Fault{At: base + 500, Kind: sim.FaultAgentResume, ENB: 1},
	)

	s.Run(int(base + 400 - s.Now()))
	if h := rib.HealthOf(1); h < controller.Suspect {
		t.Fatalf("health over the script points = %v, want Suspect or worse", h)
	}
	if got := (counts{script.Applied, script.Deferred, script.Lost}); got != (counts{0, 2, 0}) {
		t.Fatalf("during the stall applied/deferred/lost = %+v, want both points deferred", got)
	}
	if got := sl.Shares(); !slices.Equal(got, initial) {
		t.Fatalf("agent shares during the stall = %v, want %v", got, initial)
	}

	// Resume and step until the eNodeB reads below Suspect: the newest
	// withheld vector goes out on that tick.
	s.Run(int(base + 500 - s.Now()))
	for rib.HealthOf(1) >= controller.Suspect && s.Now() < base+2000 {
		s.Step()
	}
	if h := rib.HealthOf(1); h >= controller.Suspect {
		t.Fatalf("agent never recovered: %v", h)
	}
	s.Step() // the app slot of the recovery tick has run
	if got := (counts{script.Applied, script.Deferred, script.Lost}); got != (counts{1, 2, 0}) {
		t.Fatalf("on recovery applied/deferred/lost = %+v, want a single replay", got)
	}
	s.Run(500)
	if got := (counts{script.Applied, script.Deferred, script.Lost}); got != (counts{1, 2, 0}) {
		t.Errorf("after recovery applied/deferred/lost = %+v, want no second replay", got)
	}
	if got := sl.Shares(); !slices.Equal(got, []float64{0.2, 0.8}) {
		t.Errorf("agent shares after recovery = %v, want the newest point [0.2 0.8]", got)
	}
}

// TestBrokerReplaysAfterLinkRestore cuts the control link across an epoch
// whose plan changed: the member reads HealthDown, so the plan is
// withheld, and once the link is restored the broker pushes it on the
// first healthy tick — no health transition event is involved and the
// next epoch is still far off.
func TestBrokerReplaysAfterLinkRestore(t *testing.T) {
	o := controller.DefaultOptions()
	o.StatsPeriodTTI = 2
	o.EchoPeriodTTI = 10
	o.EchoMissBudget = 2
	s, sl := shareWorld(t, o, []float64{0.7, 0.3})
	const epoch = 400
	b, err := broker.New(broker.Config{EpochTTI: epoch},
		slice.Spec{Name: "a", Group: 0, Weight: 1},
		slice.Spec{Name: "b", Group: 1, Weight: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Now()
	b.Arm(base)
	s.Master.Register(b, 10)
	health := s.Master.Watch(controller.WatchFilter{ENB: 1, Kinds: controller.WatchHealth}, 64)
	defer health.Cancel()
	rib := s.Master.RIB()

	s.Run(100)
	if got := sl.Shares(); !slices.Equal(got, []float64{0.5, 0.5}) {
		t.Fatalf("agent shares after the first epoch = %v, want [0.5 0.5]", got)
	}
	// Cut the link, drop slice b and let the second epoch plan [1]
	// against a disconnected member.
	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultLinkCut, ENB: 1})
	s.Master.Do(func(ctx *controller.Context) { b.Remove(ctx, "b") })
	s.Run(int(base + epoch + 10 - s.Now()))
	if rib.Connected(1) {
		t.Fatal("link cut never detected")
	}
	if got := (counts{b.Applied, b.Deferred, b.Lost}); got != (counts{1, 1, 0}) {
		t.Fatalf("during the cut applied/deferred/lost = %+v, want the second epoch deferred", got)
	}

	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultLinkRestore, ENB: 1})
	for rib.HealthOf(1) >= controller.Suspect && s.Now() < base+2*epoch {
		s.Step()
	}
	s.Step()
	if got := (counts{b.Applied, b.Deferred, b.Lost}); got != (counts{2, 1, 0}) {
		t.Fatalf("after restore applied/deferred/lost = %+v, want one replay", got)
	}
	if s.Now() >= base+2*epoch {
		t.Fatalf("replay at cycle %d waited for the next epoch (%d)", s.Now(), base+2*epoch)
	}
	s.Run(20)
	if got := sl.Shares(); !slices.Equal(got, []float64{1}) {
		t.Errorf("agent shares after restore = %v, want [1]", got)
	}
	select {
	case ev := <-health.Events():
		t.Errorf("health event %+v: the replay must not need one", ev)
	default:
	}
	// The third epoch plans the same vector: nothing is re-sent.
	s.Run(int(base + 2*epoch + 10 - s.Now()))
	if got := (counts{b.Applied, b.Deferred, b.Lost}); got != (counts{2, 1, 0}) {
		t.Errorf("after an unchanged epoch applied/deferred/lost = %+v, want no push", got)
	}
}
