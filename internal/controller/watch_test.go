package controller_test

import (
	"reflect"
	"testing"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// scripted builds a master with no transport: sessions are driven by
// delivering protocol messages directly, so event content and order are
// fully under the test's control.
func scripted(opts controller.Options, enbs ...lte.ENBID) (*controller.Master, map[lte.ENBID]*controller.AgentSession) {
	m := controller.NewMaster(opts)
	sessions := make(map[lte.ENBID]*controller.AgentSession, len(enbs))
	for _, e := range enbs {
		sessions[e] = m.HandleAgentSession(func(*protocol.Message) error { return nil })
	}
	return m, sessions
}

func statsReply(enb lte.ENBID, sf lte.Subframe, ues ...protocol.UEStats) *protocol.Message {
	return protocol.New(enb, sf, &protocol.StatsReply{SF: sf, UEs: protocol.UETableOf(ues...)})
}

func TestWatchKindParse(t *testing.T) {
	k, err := controller.ParseWatchKinds("stats,ue")
	if err != nil {
		t.Fatal(err)
	}
	if k != controller.WatchStats|controller.WatchUE {
		t.Errorf("parsed %v", k)
	}
	if got := k.String(); got != "stats,ue" {
		t.Errorf("String() = %q", got)
	}
	if k, err = controller.ParseWatchKinds(""); err != nil || k != controller.WatchAll {
		t.Errorf("empty parse = %v, %v", k, err)
	}
	if _, err = controller.ParseWatchKinds("bogus"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestWatchFilteredDelivery(t *testing.T) {
	m, sess := scripted(controller.DefaultOptions(), 7, 8)
	w := m.Watch(controller.WatchFilter{
		ENB:   7,
		Kinds: controller.WatchStats | controller.WatchUE,
	}, 0)
	defer w.Cancel()

	sess[7].Deliver(hello(7, 0))
	sess[8].Deliver(hello(8, 0))
	m.Tick()
	sess[7].Deliver(
		statsReply(7, 1, protocol.UEStats{RNTI: 70, DLRateKbps: 500}),
		protocol.New(7, 1, &protocol.UEEvent{Type: protocol.UEEventAttach, RNTI: 70, Cell: 0}),
	)
	sess[8].Deliver(statsReply(8, 1, protocol.UEStats{RNTI: 80, DLRateKbps: 900}))
	m.Tick()

	var got []controller.WatchEvent
	for len(w.Events()) > 0 {
		got = append(got, <-w.Events())
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d events %+v, want 2 (stats+ue for enb 7 only)", len(got), got)
	}
	if got[0].Kind != controller.WatchStats || got[0].ENB != 7 || got[0].DLKbps != 500 || got[0].UEs != 1 {
		t.Errorf("stats event = %+v", got[0])
	}
	if got[1].Kind != controller.WatchUE || got[1].ENB != 7 || got[1].RNTI != 70 {
		t.Errorf("ue event = %+v", got[1])
	}
	// The full stream carried hello events and eNodeB 8's traffic too:
	// a filtered watcher sees sequence gaps, never renumbered events.
	if got[1].Seq <= got[0].Seq {
		t.Errorf("sequence not increasing: %d then %d", got[0].Seq, got[1].Seq)
	}
	if got[0].Seq == 1 {
		t.Error("filtered stream shows no gap for the dropped hello events")
	}
}

func TestWatchOverflowTerminatesSubscription(t *testing.T) {
	m, sess := scripted(controller.DefaultOptions(), 7)
	w := m.Watch(controller.WatchFilter{Kinds: controller.WatchStats}, 2)

	sess[7].Deliver(hello(7, 0))
	m.Tick()
	// Five stats reports in one cycle: the third delivery overflows the
	// two-slot buffer.
	for sf := lte.Subframe(1); sf <= 5; sf++ {
		sess[7].Deliver(statsReply(7, sf))
	}
	m.Tick()

	var got []controller.WatchEvent
	for ev := range w.Events() {
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("drained %d buffered events, want 2", len(got))
	}
	if !w.Overflowed() {
		t.Error("Overflowed() = false after buffer overrun")
	}
	// The subscription is gone: later cycles must not deliver (channel
	// already closed) and a fresh watcher works normally.
	w2 := m.Watch(controller.WatchFilter{Kinds: controller.WatchStats}, 16)
	defer w2.Cancel()
	sess[7].Deliver(statsReply(7, 6))
	m.Tick()
	select {
	case ev := <-w2.Events():
		if ev.Kind != controller.WatchStats || ev.SF != 6 {
			t.Errorf("fresh watcher event = %+v", ev)
		}
	default:
		t.Error("fresh watcher received nothing after overflow of the old one")
	}
}

func TestWatchCancelStopsRecording(t *testing.T) {
	m, sess := scripted(controller.DefaultOptions(), 7)
	w := m.Watch(controller.WatchFilter{}, 0)
	sess[7].Deliver(hello(7, 0))
	m.Tick()
	if len(w.Events()) == 0 {
		t.Fatal("no events before cancel")
	}
	w.Cancel()
	w.Cancel() // idempotent
	if _, open := <-w.Events(); open {
		// drain the hello first; the channel must then report closed
		for range w.Events() {
		}
	}
	if w.Overflowed() {
		t.Error("cancel misreported as overflow")
	}
}

// TestWatchDeterministicAcrossWorkers is the acceptance criterion: a
// subscriber observes UE attach, stats deltas, measurement reports,
// handover completions, liveness and health transitions and delivery
// failures identically on every run — same events, same order, same
// sequence numbers, same payloads. It is named for the updater worker
// pool it swept while the master had one.
func TestWatchDeterministicAcrossWorkers(t *testing.T) {
	script := func() []controller.WatchEvent {
		opts := controller.Options{
			ID:                "determinism",
			StatsPeriodTTI:    1,
			HealthPeriodTTI:   5,
			HealthDegradedTTI: 20,
			HealthSuspectTTI:  60,
			CmdRetryTTI:       2,
			CmdRetryBudget:    1,
		}
		enbs := []lte.ENBID{1, 2, 3, 4, 5, 6}
		m, sess := scripted(opts, enbs...)
		w := m.Watch(controller.WatchFilter{}, 1<<16)
		defer w.Cancel()
		// Nothing acks in this world: the command to eNodeB 1 runs out of
		// retransmissions, the one to eNodeB 2 dies with its session.
		m.Register(appFunc{name: "pusher", fn: func(c *controller.Context, cycle lte.Subframe) {
			if cycle == 20 || cycle == 30 {
				c.PushPolicy(lte.ENBID(cycle/10-1), "agent:\n  sync_period: 1\n") //nolint:errcheck
			}
		}}, 0)

		for tick := 0; tick < 100; tick++ {
			sf := lte.Subframe(tick)
			if tick == 31 {
				sess[2].Close()
			}
			for _, e := range enbs {
				next := e%6 + 1
				switch tick {
				case 0:
					sess[e].Deliver(hello(e, 0))
					continue
				case 5:
					sess[e].Deliver(protocol.New(e, sf, &protocol.UEEvent{
						Type: protocol.UEEventAttach, RNTI: lte.RNTI(100 + e), Cell: 0,
					}))
				case 7:
					sess[e].Deliver(protocol.New(e, sf, &protocol.MeasReport{
						RNTI: lte.RNTI(100 + e), IMSI: uint64(e), ServingRSRPdBm: -100,
						Neighbors: []protocol.NeighborMeas{{ENB: next, RSRPdBm: -90}},
					}))
				case 8:
					sess[e].Deliver(protocol.New(e, sf, &protocol.HandoverComplete{
						RNTI: lte.RNTI(200 + e), IMSI: uint64(next),
						SourceENB: next, SourceRNTI: lte.RNTI(100 + next),
					}))
				}
				// eNodeBs 4..6 go silent after tick 10: their report
				// staleness walks them down the health ladder.
				if e <= 3 || tick <= 10 {
					sess[e].Deliver(statsReply(e, sf, protocol.UEStats{
						RNTI: lte.RNTI(100 + e), DLRateKbps: uint32(10 * e),
					}))
				}
			}
			m.Tick()
		}
		w.Cancel()
		var evs []controller.WatchEvent
		for ev := range w.Events() {
			evs = append(evs, ev)
		}
		return evs
	}

	want := script()
	if len(want) == 0 {
		t.Fatal("the script produced no events")
	}
	kinds := make(map[controller.WatchKind]int)
	for _, ev := range want {
		kinds[ev.Kind]++
	}
	for _, k := range []controller.WatchKind{
		controller.WatchHello, controller.WatchStats, controller.WatchUE,
		controller.WatchHealth, controller.WatchDown, controller.WatchMeas,
		controller.WatchHandover,
	} {
		if kinds[k] == 0 {
			t.Errorf("script produced no %v events", k)
		}
	}
	if kinds[controller.WatchCmdFailed] != 2 {
		t.Errorf("script produced %d cmd_failed events, want 2 (budget + session close)",
			kinds[controller.WatchCmdFailed])
	}
	for _, ev := range want {
		var ok bool
		switch ev.Kind {
		case controller.WatchMeas:
			_, ok = ev.Payload.(*protocol.MeasReport)
		case controller.WatchHandover:
			_, ok = ev.Payload.(*protocol.HandoverComplete)
		case controller.WatchCmdFailed:
			_, ok = ev.Payload.(*protocol.PolicyReconf)
		default:
			ok = ev.Payload == nil
		}
		if !ok {
			t.Errorf("%v event seq %d carries payload %T", ev.Kind, ev.Seq, ev.Payload)
		}
	}
	if got := script(); !reflect.DeepEqual(got, want) {
		t.Errorf("second run: stream diverged (%d events vs %d)", len(got), len(want))
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("first divergence at %d: got %+v want %+v", i, at(got, i), want[i])
				break
			}
		}
	}
}

func at(evs []controller.WatchEvent, i int) any {
	if i < len(evs) {
		return evs[i]
	}
	return "<missing>"
}

// watchRecorder is a WatchApp capturing the in-process stream.
type watchRecorder struct {
	evs []controller.WatchEvent
}

func (*watchRecorder) Name() string { return "watch-recorder" }
func (r *watchRecorder) OnWatch(_ *controller.Context, ev controller.WatchEvent) {
	r.evs = append(r.evs, ev)
}

func TestWatchAppReceivesStreamInTick(t *testing.T) {
	m, sess := scripted(controller.DefaultOptions(), 7)
	rec := &watchRecorder{}
	m.Register(rec, 0)

	sess[7].Deliver(hello(7, 0))
	m.Tick()
	sess[7].Deliver(statsReply(7, 1, protocol.UEStats{RNTI: 70, DLRateKbps: 250}))
	m.Tick()

	if len(rec.evs) < 2 {
		t.Fatalf("watch app saw %d events, want hello + stats", len(rec.evs))
	}
	if rec.evs[0].Kind != controller.WatchHello || rec.evs[0].Seq != 1 {
		t.Errorf("first event = %+v, want hello seq 1", rec.evs[0])
	}
	last := rec.evs[len(rec.evs)-1]
	if last.Kind != controller.WatchStats || last.DLKbps != 250 {
		t.Errorf("last event = %+v, want the stats delta", last)
	}
	// Registering the app alone must have enabled recording — no external
	// watcher exists in this test.
	if infos := m.AppInfos(); len(infos) != 1 || infos[0].Events == 0 {
		t.Errorf("app infos = %+v", infos)
	}
}
