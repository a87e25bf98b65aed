package agent

import (
	"strings"
	"testing"

	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/vsfdsl"
	"flexran/internal/wire"
)

// harness wires an agent to a capture transport.
type harness struct {
	t     *testing.T
	enb   *enb.ENB
	agent *Agent
	sent  []*protocol.Message
}

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	e := enb.New(enb.Config{ID: 5, Seed: 1})
	h := &harness{t: t, enb: e}
	h.agent = New(e, opts)
	h.agent.Connect(func(m *protocol.Message) error {
		h.sent = append(h.sent, m)
		return nil
	})
	return h
}

// lastOf returns the latest sent message of a kind.
func (h *harness) lastOf(k protocol.Kind) *protocol.Message {
	for i := len(h.sent) - 1; i >= 0; i-- {
		if h.sent[i].Payload.Kind() == k {
			return h.sent[i]
		}
	}
	return nil
}

func (h *harness) countOf(k protocol.Kind) int {
	n := 0
	for _, m := range h.sent {
		if m.Payload.Kind() == k {
			n++
		}
	}
	return n
}

func (h *harness) addConnectedUE(ch radio.Model) lte.RNTI {
	h.t.Helper()
	rnti, err := h.enb.AddUE(enb.UEParams{IMSI: 1, Cell: 0, Channel: ch})
	if err != nil {
		h.t.Fatal(err)
	}
	for i := 0; i < 200 && !h.enb.Connected(rnti); i++ {
		h.enb.Step()
	}
	if !h.enb.Connected(rnti) {
		h.t.Fatal("UE failed to attach")
	}
	return rnti
}

func TestConnectSendsHello(t *testing.T) {
	h := newHarness(t, Options{})
	m := h.lastOf(protocol.KindHello)
	if m == nil {
		t.Fatal("no Hello sent")
	}
	hello := m.Payload.(*protocol.Hello)
	if hello.Config.ID != 5 || len(hello.Config.Cells) != 1 {
		t.Errorf("hello config = %+v", hello.Config)
	}
}

func TestEchoReply(t *testing.T) {
	h := newHarness(t, Options{})
	h.agent.Deliver(protocol.New(5, 0, &protocol.Echo{Seq: 77}))
	m := h.lastOf(protocol.KindEchoReply)
	if m == nil || m.Payload.(*protocol.EchoReply).Seq != 77 {
		t.Fatalf("echo reply = %+v", m)
	}
}

func TestConfigRequests(t *testing.T) {
	h := newHarness(t, Options{})
	h.addConnectedUE(radio.Fixed(12))
	h.agent.Deliver(protocol.New(5, 0, &protocol.ENBConfigRequest{}))
	if h.lastOf(protocol.KindENBConfigReply) == nil {
		t.Error("no ENB config reply")
	}
	h.agent.Deliver(protocol.New(5, 0, &protocol.UEConfigRequest{}))
	rep := h.lastOf(protocol.KindUEConfigReply)
	if rep == nil || len(rep.Payload.(*protocol.UEConfigReply).UEs) != 1 {
		t.Errorf("UE config reply = %+v", rep)
	}
}

func TestOneOffStatsReport(t *testing.T) {
	h := newHarness(t, Options{})
	h.addConnectedUE(radio.Fixed(9))
	h.agent.Deliver(protocol.New(5, 0, &protocol.StatsRequest{
		ID: 1, Mode: protocol.StatsOneOff, Flags: protocol.StatsAll,
	}))
	m := h.lastOf(protocol.KindStatsReply)
	if m == nil {
		t.Fatal("no stats reply")
	}
	rep := m.Payload.(*protocol.StatsReply)
	if rep.UEs.Len() != 1 || rep.UEs.CQI[0] != 9 {
		t.Errorf("report = %+v", rep)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].TotalPRB != 50 {
		t.Errorf("cell stats = %+v", rep.Cells)
	}
}

func TestPeriodicStatsReports(t *testing.T) {
	h := newHarness(t, Options{})
	h.addConnectedUE(radio.Fixed(9))
	h.agent.Deliver(protocol.New(5, 0, &protocol.StatsRequest{
		ID: 2, Mode: protocol.StatsPeriodic, PeriodTTI: 10, Flags: protocol.StatsCQI,
	}))
	before := h.countOf(protocol.KindStatsReply)
	for i := 0; i < 100; i++ {
		h.enb.Step()
	}
	got := h.countOf(protocol.KindStatsReply) - before
	if got != 10 {
		t.Errorf("periodic reports = %d over 100 TTIs at period 10", got)
	}
	// Cancel with period 0.
	h.agent.Deliver(protocol.New(5, 0, &protocol.StatsRequest{
		ID: 2, Mode: protocol.StatsPeriodic, PeriodTTI: 0,
	}))
	before = h.countOf(protocol.KindStatsReply)
	for i := 0; i < 50; i++ {
		h.enb.Step()
	}
	if h.countOf(protocol.KindStatsReply) != before {
		t.Error("reports continued after cancellation")
	}
}

func TestTriggeredStatsOnlyOnChange(t *testing.T) {
	h := newHarness(t, Options{})
	rnti := h.addConnectedUE(radio.Fixed(9))
	h.agent.Deliver(protocol.New(5, 0, &protocol.StatsRequest{
		ID: 3, Mode: protocol.StatsTriggered, Flags: protocol.StatsQueues,
	}))
	// Idle: exactly one initial report then silence.
	for i := 0; i < 50; i++ {
		h.enb.Step()
	}
	if got := h.countOf(protocol.KindStatsReply); got != 1 {
		t.Errorf("idle triggered reports = %d, want 1", got)
	}
	// A queue change triggers a new report.
	h.enb.DLEnqueue(rnti, 5000)
	h.enb.Step()
	if got := h.countOf(protocol.KindStatsReply); got < 2 {
		t.Errorf("no report after queue change (%d)", got)
	}
}

func TestSubframeSyncViaPolicy(t *testing.T) {
	h := newHarness(t, Options{})
	if err := h.agent.Reconfigure("agent:\n  sync_period: 1\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		h.enb.Step()
	}
	if got := h.countOf(protocol.KindSubframeTrigger); got != 20 {
		t.Errorf("sync triggers = %d, want 20", got)
	}
}

func TestUEEventForwarding(t *testing.T) {
	h := newHarness(t, Options{})
	h.addConnectedUE(radio.Fixed(15))
	if h.countOf(protocol.KindUEEvent) == 0 {
		t.Fatal("no UE events forwarded")
	}
	// Disable forwarding.
	if err := h.agent.Reconfigure("agent:\n  forward_events: no\n"); err != nil {
		t.Fatal(err)
	}
	before := h.countOf(protocol.KindUEEvent)
	h.addConnectedUE(radio.Fixed(15))
	if h.countOf(protocol.KindUEEvent) != before {
		t.Error("events forwarded while disabled")
	}
}

func TestRemoteSchedulingPath(t *testing.T) {
	h := newHarness(t, Options{})
	rnti := h.addConnectedUE(radio.Fixed(15))
	// Swap DL scheduling to the remote stub.
	if err := h.agent.Reconfigure("mac:\n  dl_ue_sched:\n    behavior: remote\n"); err != nil {
		t.Fatal(err)
	}
	r0, _ := h.enb.UEReport(rnti)
	// No decisions pushed: nothing may be delivered.
	for i := 0; i < 20; i++ {
		h.enb.DLEnqueue(rnti, 50000)
		h.enb.Step()
	}
	r1, _ := h.enb.UEReport(rnti)
	if r1.DLDelivered != r0.DLDelivered {
		t.Fatal("remote stub delivered without decisions")
	}
	// Push decisions for the next 50 subframes.
	for sf := h.enb.Now(); sf < h.enb.Now()+50; sf++ {
		h.agent.Deliver(protocol.New(5, sf, &protocol.DLSchedule{
			Cell: 0, TargetSF: sf,
			Allocs: []protocol.Alloc{{RNTI: rnti, RBStart: 0, RBCount: 50, MCS: 28}},
		}))
	}
	for i := 0; i < 50; i++ {
		h.enb.DLEnqueue(rnti, 50000)
		h.enb.Step()
	}
	r2, _ := h.enb.UEReport(rnti)
	if r2.DLDelivered == r1.DLDelivered {
		t.Fatal("pushed decisions not applied")
	}
	applied, _ := h.agent.MAC().StubStats(OpDLUESched)
	if applied == 0 {
		t.Error("stub stats show no applied decisions")
	}
}

func TestVSFUpdateNativeAndActivate(t *testing.T) {
	h := newHarness(t, Options{})
	up := &protocol.VSFUpdate{
		Module: "mac", VSF: OpDLUESched, Name: "my-pf",
		VSFKind: protocol.VSFNative, Ref: "pf",
	}
	h.agent.Deliver(protocol.New(5, 0, up))
	ack := h.lastOf(protocol.KindControlAck)
	if ack == nil || !ack.Payload.(*protocol.ControlAck).OK {
		t.Fatalf("install not acked: %+v", ack)
	}
	if err := h.agent.MAC().Activate(OpDLUESched, "my-pf"); err != nil {
		t.Fatal(err)
	}
	if got := h.agent.MAC().ActiveName(OpDLUESched); got != "my-pf" {
		t.Errorf("active = %q", got)
	}
}

func TestVSFUpdateDSLProgram(t *testing.T) {
	h := newHarness(t, Options{})
	rnti := h.addConnectedUE(radio.Fixed(15))
	prog := vsfdsl.MustCompile(
		"queue > 0 ? inst_rate / max(avg_rate, 1) : -1",
		[]string{"queue", "inst_rate", "avg_rate"})
	up := &protocol.VSFUpdate{
		Module: "mac", VSF: OpDLUESched, Name: "dsl-pf",
		VSFKind: protocol.VSFProgram, Program: wire.Marshal(prog),
	}
	h.agent.Deliver(protocol.New(5, 0, up))
	if ack := h.lastOf(protocol.KindControlAck); !ack.Payload.(*protocol.ControlAck).OK {
		t.Fatalf("DSL install rejected: %v", ack.Payload.(*protocol.ControlAck).Detail)
	}
	if err := h.agent.Reconfigure("mac:\n  dl_ue_sched:\n    behavior: dsl-pf\n"); err != nil {
		t.Fatal(err)
	}
	before, _ := h.enb.UEReport(rnti)
	for i := 0; i < 100; i++ {
		h.enb.DLEnqueue(rnti, 50000)
		h.enb.Step()
	}
	after, _ := h.enb.UEReport(rnti)
	if after.DLDelivered == before.DLDelivered {
		t.Error("DSL scheduler delivered nothing")
	}
}

func TestVSFUpdateRejectsUnknownVariable(t *testing.T) {
	h := newHarness(t, Options{})
	prog := vsfdsl.MustCompile("nonsense + 1", []string{"nonsense"})
	up := &protocol.VSFUpdate{
		Module: "mac", VSF: OpDLUESched, Name: "bad",
		VSFKind: protocol.VSFProgram, Program: wire.Marshal(prog),
	}
	h.agent.Deliver(protocol.New(5, 0, up))
	ack := h.lastOf(protocol.KindControlAck).Payload.(*protocol.ControlAck)
	if ack.OK || !strings.Contains(ack.Detail, "unknown variable") {
		t.Errorf("ack = %+v", ack)
	}
}

func TestSignedVSFEnforcement(t *testing.T) {
	h := newHarness(t, Options{RequireSignedVSFs: true})
	up := &protocol.VSFUpdate{
		Module: "mac", VSF: OpDLUESched, Name: "x",
		VSFKind: protocol.VSFNative, Ref: "pf",
	}
	// Unsigned: rejected.
	h.agent.Deliver(protocol.New(5, 0, up))
	if ack := h.lastOf(protocol.KindControlAck).Payload.(*protocol.ControlAck); ack.OK {
		t.Fatal("unsigned VSF accepted")
	}
	// Signed with the wrong key: rejected.
	Sign("wrong-key", up)
	h.agent.Deliver(protocol.New(5, 0, up))
	if ack := h.lastOf(protocol.KindControlAck).Payload.(*protocol.ControlAck); ack.OK {
		t.Fatal("wrongly signed VSF accepted")
	}
	// Properly signed: accepted.
	Sign(DefaultTrustKey, up)
	h.agent.Deliver(protocol.New(5, 0, up))
	if ack := h.lastOf(protocol.KindControlAck).Payload.(*protocol.ControlAck); !ack.OK {
		t.Fatalf("signed VSF rejected: %s", ack.Detail)
	}
	// Tampering after signing: rejected.
	up.Name = "tampered"
	h.agent.Deliver(protocol.New(5, 0, up))
	if ack := h.lastOf(protocol.KindControlAck).Payload.(*protocol.ControlAck); ack.OK {
		t.Fatal("tampered VSF accepted")
	}
}

func TestPolicyReconfErrors(t *testing.T) {
	h := newHarness(t, Options{})
	cases := []string{
		"nosuchmodule:\n  x: 1\n",
		"mac:\n  nosuchop:\n    behavior: rr\n",
		"mac:\n  dl_ue_sched:\n    behavior: nosuchvsf\n",
		"agent:\n  nosuchknob: 1\n",
		"agent:\n  sync_period: notanumber\n",
		"rrc:\n  nosuchknob: 1\n",
		":::",
	}
	for _, doc := range cases {
		if err := h.agent.Reconfigure(doc); err == nil {
			t.Errorf("policy %q accepted", doc)
		}
	}
}

func TestPolicyParameterFlow(t *testing.T) {
	h := newHarness(t, Options{})
	doc := `
mac:
  dl_ue_sched:
    behavior: slice-rr
    parameters:
      rb_share: [0.7, 0.3]
`
	if err := h.agent.Reconfigure(doc); err != nil {
		t.Fatal(err)
	}
	if got := h.agent.MAC().ActiveName(OpDLUESched); got != "slice-rr" {
		t.Fatalf("active = %q", got)
	}
	// Parameters on a non-parametrizable VSF must fail.
	err := h.agent.Reconfigure("mac:\n  dl_ue_sched:\n    behavior: rr\n    parameters:\n      rb_share: [0.5, 0.5]\n")
	if err == nil {
		t.Error("parameters accepted by rr")
	}
	// Bad share vector must fail.
	err = h.agent.Reconfigure("mac:\n  dl_ue_sched:\n    behavior: slice-rr\n    parameters:\n      rb_share: [0.9, 0.9]\n")
	if err == nil {
		t.Error("invalid shares accepted")
	}
}

func TestRRCPolicy(t *testing.T) {
	h := newHarness(t, Options{})
	doc := "rrc:\n  handover_hysteresis_db: 5.5\n  time_to_trigger_tti: 80\n"
	if err := h.agent.Reconfigure(doc); err != nil {
		t.Fatal(err)
	}
	if h.agent.RRC().Hysteresis() != 5.5 || h.agent.RRC().TimeToTrigger() != 80 {
		t.Errorf("rrc = %v/%v", h.agent.RRC().Hysteresis(), h.agent.RRC().TimeToTrigger())
	}
	// Policy documents arrive from the wire: a hysteresis no RSRP margin
	// can be compared against must be refused, not stored.
	for _, bad := range []string{"NaN", "+Inf", "-Inf", "-1", "abc"} {
		if err := h.agent.Reconfigure("rrc:\n  handover_hysteresis_db: " + bad + "\n"); err == nil {
			t.Errorf("handover_hysteresis_db: %s accepted", bad)
		}
	}
	if got := h.agent.RRC().Hysteresis(); got != 5.5 {
		t.Errorf("hysteresis = %v after rejected documents, want 5.5", got)
	}
}

func TestDroppedSendsWithoutTransport(t *testing.T) {
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	a := New(e, Options{})
	// No Connect: events during attach must count as dropped, not panic.
	e.AddUE(enb.UEParams{IMSI: 1, Cell: 0, Channel: radio.Fixed(15)})
	for i := 0; i < 50; i++ {
		e.Step()
	}
	if a.DroppedSends() == 0 {
		t.Error("expected dropped sends without transport")
	}
}

func TestMACCacheListing(t *testing.T) {
	m := NewMACModule()
	keys := m.CachedVSFs()
	if len(keys) < 8 { // 2 ops x >=4 store entries
		t.Errorf("cache = %v", keys)
	}
	if err := m.Activate("nosuchop", "rr"); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestVSFSwapPreservesThroughput(t *testing.T) {
	// §5.4: swapping between an rr and a pf VSF at runtime must not
	// disrupt service (same saturated throughput as never swapping).
	run := func(swapEvery int) uint64 {
		e := enb.New(enb.Config{ID: 1, Seed: 3})
		a := New(e, Options{})
		rnti, _ := e.AddUE(enb.UEParams{IMSI: 1, Cell: 0, Channel: radio.Fixed(15)})
		for i := 0; i < 200 && !e.Connected(rnti); i++ {
			e.Step()
		}
		names := []string{"rr", "pf"}
		for i := 0; i < 3000; i++ {
			if swapEvery > 0 && i%swapEvery == 0 {
				if err := a.MAC().Activate(OpDLUESched, names[(i/swapEvery)%2]); err != nil {
					t.Fatal(err)
				}
			}
			e.DLEnqueue(rnti, 1<<20)
			e.Step()
		}
		r, _ := e.UEReport(rnti)
		return r.DLDelivered
	}
	stable := run(0)
	swapped := run(1) // swap every TTI, the fastest case in §5.4
	diff := float64(stable) - float64(swapped)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(stable) > 0.01 {
		t.Errorf("swap at 1 TTI changed throughput: %d vs %d", stable, swapped)
	}
}
