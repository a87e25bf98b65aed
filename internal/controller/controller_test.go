package controller_test

import (
	"testing"
	"time"

	"flexran/internal/agent"
	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
	"flexran/internal/transport"
)

// rig wires one master and one agent-enabled eNodeB over a simulated link
// and steps them in lockstep.
type rig struct {
	t      *testing.T
	master *controller.Master
	agent  *agent.Agent
	enb    *enb.ENB
	mEp    *transport.SimEndpoint // master side
	aEp    *transport.SimEndpoint // agent side
	sess   *controller.AgentSession
}

func newRig(t *testing.T, opts controller.Options, netemToMaster, netemToAgent transport.Netem) *rig {
	t.Helper()
	e := enb.New(enb.Config{ID: 9, Seed: 1})
	a := agent.New(e, agent.Options{RequireSignedVSFs: true})
	m := controller.NewMaster(opts)
	aEp, mEp := transport.NewSimPair(netemToMaster, netemToAgent)
	r := &rig{t: t, master: m, agent: a, enb: e, mEp: mEp, aEp: aEp}
	r.sess = m.HandleAgentSession(mEp.Send)
	a.Connect(aEp.Send)
	return r
}

// step advances the whole system by one TTI.
func (r *rig) step() {
	sf := r.enb.Now()
	// Deliver agent->master traffic that has arrived by now.
	msgs := r.mEp.AdvanceTo(sf)
	r.sess.Deliver(msgs...)
	// Master cycle.
	r.master.Tick()
	// Deliver master->agent traffic.
	msgs = r.aEp.AdvanceTo(sf)
	for _, m := range msgs {
		r.agent.Deliver(m)
	}
	// Data plane TTI.
	r.enb.Step()
}

func (r *rig) run(ttis int) {
	for i := 0; i < ttis; i++ {
		r.step()
	}
}

// runUntil steps until done holds, at most ttis times, and reports whether
// it held.
func (r *rig) runUntil(ttis int, done func() bool) bool {
	for i := 0; i < ttis && !done(); i++ {
		r.step()
	}
	return done()
}

func (r *rig) addConnectedUE(ch radio.Model) lte.RNTI {
	r.t.Helper()
	rnti, err := r.enb.AddUE(enb.UEParams{IMSI: 1, Cell: 0, Channel: ch})
	if err != nil {
		r.t.Fatal(err)
	}
	for i := 0; i < 300 && !r.enb.Connected(rnti); i++ {
		r.step()
	}
	if !r.enb.Connected(rnti) {
		r.t.Fatal("UE failed to attach")
	}
	return rnti
}

func TestHandshakePopulatesRIB(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	r.run(5)
	rib := r.master.RIB()
	agents := rib.Agents()
	if len(agents) != 1 || agents[0] != 9 {
		t.Fatalf("agents = %v", agents)
	}
	if !rib.Connected(9) {
		t.Error("agent not marked connected")
	}
	cfg, ok := rib.AgentConfig(9)
	if !ok || len(cfg.Cells) != 1 || cfg.Cells[0].Bandwidth != lte.BW10MHz {
		t.Errorf("config = %+v", cfg)
	}
}

func TestPerTTIStatsReachRIB(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	rnti := r.addConnectedUE(radio.Fixed(11))
	r.enb.DLEnqueue(rnti, 100000)
	r.run(10)
	stats, ok := r.master.RIB().UEStats(9, rnti)
	if !ok {
		t.Fatal("UE missing from RIB")
	}
	if stats.CQI != 11 {
		t.Errorf("CQI in RIB = %d, want 11", stats.CQI)
	}
	sf, _ := r.master.RIB().AgentSF(9)
	if sf == 0 {
		t.Error("agent subframe never synchronized")
	}
}

func TestSubframeSyncTracksAgentTime(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	r.run(100)
	sf, ok := r.master.RIB().AgentSF(9)
	if !ok {
		t.Fatal("no agent time")
	}
	if sf < 95 || sf > 100 {
		t.Errorf("master's agent time = %v, enb at %v", sf, r.enb.Now())
	}
}

func TestSyncLagGrowsWithDelay(t *testing.T) {
	// With one-way delay d, the master's view of agent time lags by ~d
	// (the RTT/2 staleness of §5.3).
	lag := func(d int) int {
		r := newRig(t, controller.DefaultOptions(),
			transport.Netem{OneWayTTI: d}, transport.Netem{OneWayTTI: d})
		r.run(200)
		sf, _ := r.master.RIB().AgentSF(9)
		return int(r.enb.Now()) - int(sf)
	}
	l0, l20 := lag(0), lag(20)
	if l20 < l0+15 {
		t.Errorf("lag with 20ms delay = %d, lag without = %d", l20, l0)
	}
}

// schedApp is a minimal centralized scheduler app for testing the command
// path end to end.
type schedApp struct {
	ahead lte.Subframe
	algo  sched.Scheduler
	sent  int
}

func (s *schedApp) Name() string { return "test-sched" }

func (s *schedApp) OnTick(ctx *controller.Context, _ lte.Subframe) {
	rib := ctx.RIB()
	for _, enbID := range rib.Agents() {
		sf, ok := rib.AgentSF(enbID)
		if !ok {
			continue
		}
		var in sched.Input
		in.SF = sf + s.ahead
		in.Dir = lte.Downlink
		in.TotalPRB = 50
		for _, ue := range rib.UEsOf(enbID) {
			in.UEs = append(in.UEs, sched.UEInfo{
				RNTI: ue.RNTI, CQI: ue.CQI,
				QueueBytes:  int(ue.DLQueue),
				AvgRateKbps: float64(ue.DLRateKbps),
			})
		}
		allocs := s.algo.Schedule(in)
		if len(allocs) > 0 {
			ctx.ScheduleDL(enbID, 0, in.SF, allocs)
			s.sent++
		}
	}
}

func TestCentralizedSchedulingEndToEnd(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	app := &schedApp{ahead: 2, algo: sched.NewRoundRobin()}
	r.master.Register(app, 100)
	rnti := r.addConnectedUE(radio.Fixed(15))

	// Swap the agent to remote mode via the policy path.
	if _, err := r.cmd(func(ctx *controller.Context) (uint64, error) {
		return ctx.ActivateVSF(9, "mac", agent.OpDLUESched, "remote")
	}); err != nil {
		t.Fatal(err)
	}
	r.run(5) // let the policy arrive
	if got := r.agent.MAC().ActiveName(agent.OpDLUESched); got != "remote" {
		t.Fatalf("active VSF = %q", got)
	}

	before, _ := r.enb.UEReport(rnti)
	for i := 0; i < 2000; i++ {
		r.enb.DLEnqueue(rnti, 1<<20)
		r.step()
	}
	after, _ := r.enb.UEReport(rnti)
	mbps := float64(after.DLDelivered-before.DLDelivered) * 8 / 1e6 / 2
	if mbps < 20 {
		t.Errorf("remote-scheduled throughput = %.1f Mb/s, want near line rate", mbps)
	}
	if app.sent == 0 {
		t.Error("app sent no scheduling commands")
	}
	applied, _ := r.agent.MAC().StubStats(agent.OpDLUESched)
	if applied == 0 {
		t.Error("no remote decisions applied")
	}
}

// cmd runs fn as a Master.Do operation on one master cycle, where its
// Context is valid, and returns what fn returned.
func (r *rig) cmd(fn func(*controller.Context) (uint64, error)) (seq uint64, err error) {
	r.master.Do(func(ctx *controller.Context) { seq, err = fn(ctx) })
	r.master.Tick()
	return seq, err
}

type appFunc struct {
	name string
	fn   func(*controller.Context, lte.Subframe)
}

func (a appFunc) Name() string                                  { return a.name }
func (a appFunc) OnTick(c *controller.Context, sf lte.Subframe) { a.fn(c, sf) }

// reliableOptions enables sequenced commands, so each one's ack lands in
// the master's outcome registry.
func reliableOptions() controller.Options {
	opts := controller.DefaultOptions()
	opts.CmdRetryTTI = 10
	return opts
}

// runUntilAcked requires a command to have been sequenced, steps the rig
// for three TTIs and requires the command's recorded outcome to be an OK
// ack.
func (r *rig) runUntilAcked(seq uint64, err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
	if seq == 0 {
		r.t.Fatal("command was not sequenced")
	}
	r.run(3)
	o, ok := r.master.CommandOutcome(seq)
	switch {
	case !ok:
		r.t.Fatalf("no outcome for command %d", seq)
	case !o.OK:
		r.t.Fatalf("command %d: nack: %s", seq, o.Detail)
	}
}

func TestVSFPushAndAckRoundTrip(t *testing.T) {
	r := newRig(t, reliableOptions(), transport.Netem{}, transport.Netem{})
	r.run(3)
	seq, err := r.cmd(func(ctx *controller.Context) (uint64, error) {
		return ctx.PushProgramVSF(9, "mac", agent.OpDLUESched, "edge-first",
			"queue > 0 ? cqi : -1", []string{"queue", "cqi"})
	})
	done := r.master.WaitCommand(seq)
	r.runUntilAcked(seq, err)
	if o := <-done; !o.OK || o.Seq != seq {
		t.Errorf("WaitCommand(%d) = %+v", seq, o)
	}
	r.runUntilAcked(r.cmd(func(ctx *controller.Context) (uint64, error) {
		return ctx.ActivateVSF(9, "mac", agent.OpDLUESched, "edge-first")
	}))
	if got := r.agent.MAC().ActiveName(agent.OpDLUESched); got != "edge-first" {
		t.Errorf("active = %q", got)
	}
}

func TestPushNativeVSF(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	r.run(3)
	if _, err := r.cmd(func(ctx *controller.Context) (uint64, error) {
		return ctx.PushNativeVSF(9, "mac", agent.OpDLUESched, "pf-live", "pf")
	}); err != nil {
		t.Fatal(err)
	}
	r.run(3)
	if _, err := r.cmd(func(ctx *controller.Context) (uint64, error) {
		return ctx.ActivateVSF(9, "mac", agent.OpDLUESched, "pf-live")
	}); err != nil {
		t.Fatal(err)
	}
	r.run(3)
	if got := r.agent.MAC().ActiveName(agent.OpDLUESched); got != "pf-live" {
		t.Errorf("active = %q", got)
	}
}

// TestForgedAckRecordsNoOutcome: a second session, which never sent Hello,
// acks eNodeB 9's command first as eNodeB 7. The master records nothing
// for it, and the outcome is eNodeB 9's own ack.
func TestForgedAckRecordsNoOutcome(t *testing.T) {
	r := newRig(t, reliableOptions(), transport.Netem{}, transport.Netem{})
	r.run(3)
	seq, err := r.cmd(func(ctx *controller.Context) (uint64, error) {
		return ctx.PushNativeVSF(9, "mac", agent.OpDLUESched, "pf-live", "pf")
	})
	if err != nil || seq == 0 {
		t.Fatalf("command not sequenced: seq %d, %v", seq, err)
	}
	forger := r.master.HandleAgentSession(func(*protocol.Message) error { return nil })
	forger.Deliver(protocol.New(7, 0, &protocol.ControlAck{Seq: seq, OK: false, Detail: "forged"}))
	r.master.Tick()
	if o, ok := r.master.CommandOutcome(seq); ok {
		t.Fatalf("forged ack recorded: %+v", o)
	}
	r.run(3)
	if o, ok := r.master.CommandOutcome(seq); !ok || o.ENB != 9 || !o.OK || o.Detail != "" {
		t.Errorf("outcome = %+v, %v; want eNodeB 9's ack", o, ok)
	}
}

func TestApplySharesReachesAgent(t *testing.T) {
	r := newRig(t, reliableOptions(), transport.Netem{}, transport.Netem{})
	r.run(3)
	r.runUntilAcked(r.cmd(func(ctx *controller.Context) (uint64, error) {
		return ctx.ActivateVSF(9, "mac", agent.OpDLUESched, "slice-rr")
	}))
	plan := controller.SharePlan{Module: "mac", VSF: agent.OpDLUESched, Shares: []float64{0.4, 0.6}}
	applyShares := func(ctx *controller.Context) (uint64, error) { return ctx.ApplyShares(9, plan) }
	r.runUntilAcked(r.cmd(applyShares))
	plan.Shares = []float64{0.9, 0.9}
	if _, err := r.cmd(applyShares); err == nil {
		t.Error("invalid shares accepted locally")
	}
}

// eventCounter collects the UE events of the watch stream.
type eventCounter struct{ events []controller.WatchEvent }

func (e *eventCounter) Name() string { return "events" }
func (e *eventCounter) OnWatch(_ *controller.Context, ev controller.WatchEvent) {
	if ev.Kind == controller.WatchUE {
		e.events = append(e.events, ev)
	}
}

func TestEventNotificationService(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	ec := &eventCounter{}
	r.master.Register(ec, 0)
	r.addConnectedUE(radio.Fixed(15))
	r.run(5)
	var sawRA, sawAttach bool
	for _, ev := range ec.events {
		switch ev.UEType {
		case protocol.UEEventRandomAccess:
			sawRA = true
		case protocol.UEEventAttach:
			sawAttach = true
		}
	}
	if !sawRA || !sawAttach {
		t.Errorf("events = %+v", ec.events)
	}
	// The attach also created a RIB UE record.
	if r.master.RIB().UECount(9) != 1 {
		t.Errorf("RIB UE count = %d", r.master.RIB().UECount(9))
	}
}

func TestAppPriorityOrdering(t *testing.T) {
	m := controller.NewMaster(controller.Options{})
	var order []string
	mk := func(name string) controller.App {
		return appFunc{name: name, fn: func(*controller.Context, lte.Subframe) {
			order = append(order, name)
		}}
	}
	m.Register(mk("low"), 1)
	m.Register(mk("high"), 10)
	m.Register(mk("mid"), 5)
	m.Tick()
	if len(order) != 3 || order[0] != "high" || order[1] != "mid" || order[2] != "low" {
		t.Errorf("execution order = %v", order)
	}
	if names := m.Apps(); names[0] != "high" {
		t.Errorf("Apps() = %v", names)
	}
}

// TestLoopStatsTimesCoreAndApps: an attached LoopStats gets one sample per
// cycle on both Fig. 8 legs — the RIB-updater slot and the application
// slot — and the app doing the work shows up on the apps leg, not the
// core one.
func TestLoopStatsTimesCoreAndApps(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	r.master.Register(appFunc{name: "busy", fn: func(*controller.Context, lte.Subframe) {
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
	}}, 0)
	var ls metrics.LoopStats
	r.master.SetLoopStats(&ls)
	r.run(50)
	if ls.Ingest.Count() != 50 || ls.Apps.Count() != 50 {
		t.Errorf("cycle samples = %d/%d", ls.Ingest.Count(), ls.Apps.Count())
	}
	if apps := ls.Apps.Quantile(0.5); apps < 200*time.Microsecond {
		t.Errorf("median apps leg = %v, want >= the app's 200µs spin", apps)
	}
	if core, apps := ls.Ingest.Quantile(0.5), ls.Apps.Quantile(0.5); core >= apps {
		t.Errorf("median core leg %v >= apps leg %v: the app's time leaked into core", core, apps)
	}
	if r.master.Cycle() != 50 {
		t.Errorf("cycles = %d", r.master.Cycle())
	}
}

func TestSendWithoutSession(t *testing.T) {
	m := controller.NewMaster(controller.Options{})
	if err := m.Send(42, &protocol.Echo{}); err == nil {
		t.Error("send to unknown agent accepted")
	}
}

func TestDisconnectAgent(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	r.run(3)
	r.master.DisconnectAgent(9)
	if r.master.RIB().Connected(9) {
		t.Error("still connected after disconnect")
	}
	if err := r.master.Send(9, &protocol.Echo{}); err == nil {
		t.Error("send after disconnect accepted")
	}
}

func TestSessionCloseDropsLateTraffic(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	sess := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	sess.Deliver(protocol.New(7, 0, &protocol.Hello{Version: protocol.ProtocolVersion}))
	m.Tick()
	if !m.RIB().Connected(7) {
		t.Fatal("agent not connected after hello")
	}
	sess.Close()
	if m.RIB().Connected(7) {
		t.Fatal("still connected after close")
	}
	// Traffic delivered after the close must be dropped (the session may
	// already be pruned from the drain list), not stranded or applied.
	sess.Deliver(protocol.New(7, 1, &protocol.SubframeTrigger{SF: 99}))
	m.Tick()
	m.Tick()
	if sf, _ := m.RIB().AgentSF(7); sf == 99 {
		t.Error("post-close message reached the RIB")
	}
}

func TestSessionCloseBeforeHelloApplied(t *testing.T) {
	// A connection that dies with its hello still queued must not leave
	// a ghost connected agent in the RIB.
	m := controller.NewMaster(controller.DefaultOptions())
	sess := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	sess.Deliver(protocol.New(8, 0, &protocol.Hello{Version: protocol.ProtocolVersion}))
	sess.Close()
	m.Tick()
	if m.RIB().Connected(8) {
		t.Error("ghost connected agent after close-before-apply")
	}
}

func TestStaleCloseDoesNotDisconnectReconnectedAgent(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	old := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	old.Deliver(protocol.New(9, 0, &protocol.Hello{Version: protocol.ProtocolVersion}))
	m.Tick()
	// The agent reconnects on a new transport and rebinds the ENB...
	fresh := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	fresh.Deliver(protocol.New(9, 1, &protocol.Hello{Version: protocol.ProtocolVersion}))
	m.Tick()
	if !m.RIB().Connected(9) {
		t.Fatal("reconnected agent not connected")
	}
	// ...then the stale connection's reader finally exits. Its close
	// must not mark the live agent down.
	old.Close()
	if !m.RIB().Connected(9) {
		t.Error("stale close disconnected the live reconnected agent")
	}
}
