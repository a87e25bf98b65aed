package controller_test

import (
	"testing"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/transport"
)

// hello builds a Hello message for master-level session tests.
func hello(enb lte.ENBID, epoch uint64) *protocol.Message {
	return protocol.New(enb, 0, &protocol.Hello{
		Version: protocol.ProtocolVersion,
		Epoch:   epoch,
		Config: protocol.ENBConfig{ID: enb, Cells: []protocol.CellConfig{
			{Cell: 0, Bandwidth: lte.BW10MHz},
		}},
	})
}

// statsWithCQI builds a one-UE StatsReply carrying a marker CQI.
func statsWithCQI(sf lte.Subframe, rnti lte.RNTI, cqi lte.CQI) *protocol.Message {
	return protocol.New(7, sf, &protocol.StatsReply{ID: 1, SF: sf, UEs: protocol.UETableOf(
		protocol.UEStats{RNTI: rnti, Cell: 0, CQI: cqi},
	)})
}

// TestLostHelloRetransmitRecovers is the lost-handshake regression test:
// before the retransmission loop, an agent whose single Hello was dropped
// by a lossy control channel stayed unwelcomed forever. Under heavy Netem
// loss the handshake must now complete — the master welcomes the agent and
// the agent hears the ack — and per-TTI stats must then reach the RIB, for
// every one of 100 loss patterns. How long that takes depends on the draws,
// so each stage gets a generous TTI budget rather than a fixed instant
// (the slowest of 200 patterns needed ~820 and ~3,800 TTIs). Heartbeats are
// off: at 80 % loss the liveness probe may rightly declare the agent dead
// between handshake and first report, and this rig has no transport driver
// to reconnect it.
func TestLostHelloRetransmitRecovers(t *testing.T) {
	const handshakeTTIs, statsTTIs = 10000, 20000
	opts := controller.DefaultOptions()
	opts.EchoPeriodTTI = 0
	for k := int64(0); k < 100; k++ {
		r := newRig(t, opts,
			transport.Netem{LossProb: 0.8, Seed: 3 + 2*k}, // most Hellos die in flight
			transport.Netem{LossProb: 0.5, Seed: 4 + 2*k}) // acks are lossy too
		welcomed := func() bool { return r.master.RIB().Connected(9) && r.agent.HelloAcked() }
		if !r.runUntil(handshakeTTIs, welcomed) {
			t.Fatalf("loss pattern %d: no completed handshake after %d TTIs (master connected %v, agent acked %v)",
				k, handshakeTTIs, r.master.RIB().Connected(9), r.agent.HelloAcked())
		}
		flowing := func() bool { sf, _ := r.master.RIB().AgentSF(9); return sf > 0 }
		if !r.runUntil(statsTTIs, flowing) {
			t.Fatalf("loss pattern %d: no agent traffic absorbed %d TTIs after the handshake", k, statsTTIs)
		}
	}
}

// TestStaleHelloCannotRebind pins the epoch total order: once epoch E is
// accepted for an eNodeB, a Hello with epoch < E — even on a brand-new
// session, even after the owning session closed — is fenced out.
func TestStaleHelloCannotRebind(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	cur := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	cur.Deliver(hello(7, 5))
	m.Tick()
	if !m.RIB().Connected(7) {
		t.Fatal("epoch-5 session not connected")
	}

	// A ghost incarnation shows up with an older epoch on a new session.
	ghost := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	ghost.Deliver(hello(7, 3))
	ghost.Deliver(statsWithCQI(1, 0x50, 2)) // its writes must be fenced too
	m.Tick()
	if !m.RIB().Connected(7) {
		t.Error("stale Hello disturbed the live session")
	}
	if m.RIB().UECount(7) != 0 {
		t.Error("fenced session's stats reached the RIB")
	}

	// Even with the owning session gone, the ghost stays fenced: epochs
	// survive session closes.
	cur.Close()
	ghost2 := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	ghost2.Deliver(hello(7, 4))
	m.Tick()
	if m.RIB().Connected(7) {
		t.Error("pre-close epoch accepted after owner close")
	}
	// The genuinely-next incarnation is welcome.
	fresh := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	fresh.Deliver(hello(7, 6))
	m.Tick()
	if !m.RIB().Connected(7) {
		t.Error("newer epoch rejected")
	}
}

// TestTakeoverFencesOldSessionWrites covers the reconnect race: after a
// newer-epoch Hello rebinds the eNodeB, traffic still draining from the
// displaced session must be dropped, and its belated close must not mark
// the fresh session down.
func TestTakeoverFencesOldSessionWrites(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	old := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	old.Deliver(hello(7, 1))
	m.Tick()

	fresh := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	fresh.Deliver(hello(7, 2))
	m.Tick()

	// The old transport's reader drains a leftover report with a marker
	// CQI, then finally notices the close.
	old.Deliver(statsWithCQI(3, 0x46, 3))
	m.Tick()
	if m.RIB().UECount(7) != 0 {
		t.Error("displaced session's write survived the epoch fence")
	}
	old.Close()
	if !m.RIB().Connected(7) {
		t.Error("stale close downed the reconnected agent")
	}

	// The fresh session's own traffic still applies.
	fresh.Deliver(statsWithCQI(4, 0x46, 9))
	m.Tick()
	stats, ok := m.RIB().UEStats(7, 0x46)
	if !ok || stats.CQI != 9 {
		t.Errorf("fresh session stats = %+v ok=%v", stats, ok)
	}
}

// TestSameTickTakeoverAppliesInIngestOrder covers the reconnect race
// window inside one tick: the displaced session's residual batch and the
// successor's Hello are drained together, and with a parallel updater pool
// they must still apply in ingest order on one worker (the updater-slot
// grouping) — the residual write lands first and is wiped by the new
// Hello's shard replacement, never after it as a ghost record.
func TestSameTickTakeoverAppliesInIngestOrder(t *testing.T) {
	opts := controller.DefaultOptions()
	opts.Workers = 8
	for round := 0; round < 50; round++ {
		m := controller.NewMaster(opts)
		old := m.HandleAgentSession(func(*protocol.Message) error { return nil })
		old.Deliver(hello(7, 1))
		m.Tick()

		// Same tick: the old incarnation's residual report and the new
		// incarnation's Hello (plus a decoy session keeping the pool busy).
		decoy := m.HandleAgentSession(func(*protocol.Message) error { return nil })
		decoy.Deliver(hello(8, 1))
		old.Deliver(statsWithCQI(2, 0x66, 5))
		fresh := m.HandleAgentSession(func(*protocol.Message) error { return nil })
		fresh.Deliver(hello(7, 2))
		m.Tick()

		if got := m.RIB().UECount(7); got != 0 {
			t.Fatalf("round %d: ghost UE records after same-tick takeover: %d", round, got)
		}
		if !m.RIB().Connected(7) {
			t.Fatalf("round %d: successor not connected", round)
		}
	}
}

// TestResyncVerifiesSubscriptions: the snapshot's subscription list is the
// master's audit surface — a snapshot missing the default subscription
// (the welcome's StatsRequest died in flight) triggers an immediate
// re-issue; a snapshot carrying it does not.
func TestResyncVerifiesSubscriptions(t *testing.T) {
	opts := controller.DefaultOptions() // StatsPeriodTTI 1
	var statsReqs int
	m := controller.NewMaster(opts)
	sess := m.HandleAgentSession(func(msg *protocol.Message) error {
		if msg.Payload.Kind() == protocol.KindStatsRequest {
			statsReqs++
		}
		return nil
	})
	sess.Deliver(hello(7, 1))
	m.Tick()
	if statsReqs != 1 {
		t.Fatalf("welcome sent %d StatsRequests, want 1", statsReqs)
	}

	// Snapshot proving the subscription took hold: no repair.
	sess.Deliver(protocol.New(7, 1, &protocol.StateSnapshot{
		Epoch: 1, SF: 1, Config: protocol.ENBConfig{ID: 7},
		Subs: []protocol.StatsRequest{{
			ID: 1, Mode: protocol.StatsPeriodic, PeriodTTI: uint32(opts.StatsPeriodTTI), Flags: protocol.StatsAll,
		}},
	}))
	m.Tick()
	if statsReqs != 1 {
		t.Errorf("matching subscription still repaired (%d requests)", statsReqs)
	}

	// Snapshot with the subscription missing: re-issue immediately.
	sess.Deliver(protocol.New(7, 2, &protocol.StateSnapshot{
		Epoch: 1, SF: 2, Config: protocol.ENBConfig{ID: 7},
	}))
	m.Tick()
	if statsReqs != 2 {
		t.Errorf("lost subscription not repaired (%d requests, want 2)", statsReqs)
	}
}

// TestDuplicateHelloPreservesShard: a retransmitted Hello (lost HelloAck)
// must re-trigger the welcome but not wipe the UE records the first one's
// session already accumulated.
func TestDuplicateHelloPreservesShard(t *testing.T) {
	var acks int
	m := controller.NewMaster(controller.DefaultOptions())
	sess := m.HandleAgentSession(func(msg *protocol.Message) error {
		if msg.Payload.Kind() == protocol.KindHelloAck {
			acks++
		}
		return nil
	})
	sess.Deliver(hello(7, 1))
	sess.Deliver(statsWithCQI(1, 0x46, 11))
	m.Tick()
	if m.RIB().UECount(7) != 1 {
		t.Fatal("stats not absorbed")
	}
	sess.Deliver(hello(7, 1)) // retransmission of the same epoch
	m.Tick()
	if m.RIB().UECount(7) != 1 {
		t.Error("duplicate Hello wiped the shard")
	}
	if acks != 2 {
		t.Errorf("HelloAcks sent = %d, want 2 (one per Hello)", acks)
	}
}

// TestResyncRebuildsShardInOneCycle: a StateSnapshot must replace the whole
// UE forest — records the agent no longer has disappear, snapshot records
// appear with full statistics — within the cycle it is applied.
func TestResyncRebuildsShardInOneCycle(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	sess := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	sess.Deliver(hello(7, 1))
	sess.Deliver(statsWithCQI(1, 0x99, 4)) // pre-failure record, soon stale
	m.Tick()

	sess.Deliver(protocol.New(7, 2, &protocol.StateSnapshot{
		Epoch: 1, SF: 2,
		Config: protocol.ENBConfig{ID: 7, Cells: []protocol.CellConfig{{Cell: 0}}},
		UEs: protocol.UETableOf(
			protocol.UEStats{RNTI: 0x46, Cell: 0, CQI: 12, DLQueue: 500, SubbandCQI: []uint8{11, 12}},
			protocol.UEStats{RNTI: 0x47, Cell: 0, CQI: 7},
		),
		Configs: []protocol.UEConfig{
			{RNTI: 0x46, Cell: 0, IMSI: 1001},
			{RNTI: 0x47, Cell: 0, IMSI: 1002},
		},
		Cells: []protocol.CellStats{{Cell: 0, UsedPRB: 13, TotalPRB: 50}},
	}))
	m.Tick()

	rib := m.RIB()
	if got := rib.UECount(7); got != 2 {
		t.Fatalf("UECount = %d, want 2 (snapshot is authoritative)", got)
	}
	if _, ok := rib.UEStats(7, 0x99); ok {
		t.Error("pre-failure ghost record survived the resync")
	}
	stats, ok := rib.UEStats(7, 0x46)
	if !ok || stats.CQI != 12 || stats.DLQueue != 500 || len(stats.SubbandCQI) != 2 {
		t.Errorf("resynced stats = %+v ok=%v", stats, ok)
	}
	if cs, ok := rib.CellStats(7, 0); !ok || cs.UsedPRB != 13 {
		t.Errorf("resynced cell stats = %+v ok=%v", cs, ok)
	}
	if sf, _ := rib.AgentSF(7); sf != 2 {
		t.Errorf("agent SF after resync = %d, want 2", sf)
	}
}

// lifeRecorder captures the order of up/down events on the watch stream.
type lifeRecorder struct {
	ups, downs []lte.ENBID
	order      []string
}

func (*lifeRecorder) Name() string { return "life-recorder" }
func (l *lifeRecorder) OnWatch(_ *controller.Context, ev controller.WatchEvent) {
	switch ev.Kind {
	case controller.WatchUp:
		l.ups = append(l.ups, ev.ENB)
		l.order = append(l.order, "up")
	case controller.WatchDown:
		l.downs = append(l.downs, ev.ENB)
		l.order = append(l.order, "down")
	}
}

// TestLifecycleEventsOnReconnect: close → AgentDown; resynced reconnect →
// AgentUp, in that order.
func TestLifecycleEventsOnReconnect(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	lr := &lifeRecorder{}
	m.Register(lr, 0)

	sess := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	sess.Deliver(hello(7, 1))
	sess.Deliver(protocol.New(7, 1, &protocol.StateSnapshot{Epoch: 1, SF: 1,
		Config: protocol.ENBConfig{ID: 7}}))
	m.Tick()
	if len(lr.ups) != 1 || lr.ups[0] != 7 {
		t.Fatalf("ups after resync = %v", lr.ups)
	}

	sess.Close()
	m.Tick()
	if len(lr.downs) != 1 || lr.downs[0] != 7 {
		t.Fatalf("downs after close = %v", lr.downs)
	}

	fresh := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	fresh.Deliver(hello(7, 2))
	fresh.Deliver(protocol.New(7, 2, &protocol.StateSnapshot{Epoch: 2, SF: 2,
		Config: protocol.ENBConfig{ID: 7}}))
	m.Tick()
	if len(lr.ups) != 2 {
		t.Fatalf("no AgentUp after reconnect resync: %v", lr.order)
	}
}

// TestHeartbeatDisconnectsQuietAgent: with heartbeats enabled, a bound
// session that stops delivering is probed with Echoes and, after the miss
// budget, closed — RIB down plus AgentDown dispatch, with no transport
// close involved.
func TestHeartbeatDisconnectsQuietAgent(t *testing.T) {
	opts := controller.DefaultOptions()
	opts.EchoPeriodTTI = 10
	opts.EchoMissBudget = 2
	m := controller.NewMaster(opts)
	lr := &lifeRecorder{}
	m.Register(lr, 0)

	var echoes int
	sess := m.HandleAgentSession(func(msg *protocol.Message) error {
		if msg.Payload.Kind() == protocol.KindEcho {
			echoes++
		}
		return nil
	})
	sess.Deliver(hello(7, 1))
	m.Tick()

	// Silence. Disconnect must land after roughly period*(budget+1) cycles.
	deadline := 10 * 5
	down := -1
	for i := 0; i < deadline && down < 0; i++ {
		m.Tick()
		if !m.RIB().Connected(7) {
			down = i
		}
	}
	if down < 0 {
		t.Fatalf("quiet agent still connected after %d cycles", deadline)
	}
	if echoes < 2 {
		t.Errorf("only %d liveness probes sent before disconnect", echoes)
	}
	if len(lr.downs) != 1 || lr.downs[0] != 7 {
		t.Errorf("AgentDown dispatch = %v", lr.downs)
	}
	// A live agent answering (or just reporting) is never disconnected:
	// reconnect and keep delivering.
	fresh := m.HandleAgentSession(func(*protocol.Message) error { return nil })
	fresh.Deliver(hello(7, 2))
	m.Tick()
	for i := 0; i < 60; i++ {
		fresh.Deliver(protocol.New(7, lte.Subframe(i), &protocol.SubframeTrigger{SF: lte.Subframe(i)}))
		m.Tick()
	}
	if !m.RIB().Connected(7) {
		t.Error("reporting agent heartbeat-disconnected")
	}
}

// TestReconnectStormConverges flaps one agent through many sessions with
// adversarial orderings — close before the successor's Hello, close after
// (stale close), leftover stats draining from displaced sessions — and the
// RIB must end bit-for-bit at the last incarnation's snapshot state with
// no stale-session writes.
func TestReconnectStormConverges(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	rib := m.RIB()

	snap := func(epoch uint64, cqi lte.CQI) *protocol.Message {
		return protocol.New(7, lte.Subframe(epoch), &protocol.StateSnapshot{
			Epoch: epoch, SF: lte.Subframe(100 * epoch),
			Config:  protocol.ENBConfig{ID: 7, Cells: []protocol.CellConfig{{Cell: 0}}},
			UEs:     protocol.UETableOf(protocol.UEStats{RNTI: 0x46, Cell: 0, CQI: cqi}),
			Configs: []protocol.UEConfig{{RNTI: 0x46, Cell: 0, IMSI: 4242}},
		})
	}

	var prev *controller.AgentSession
	const flaps = 8
	for epoch := uint64(1); epoch <= flaps; epoch++ {
		if prev != nil && epoch%2 == 0 {
			prev.Close() // clean close before the successor appears
			m.Tick()
		}
		sess := m.HandleAgentSession(func(*protocol.Message) error { return nil })
		sess.Deliver(hello(7, epoch))
		sess.Deliver(snap(epoch, lte.CQI(epoch)))
		m.Tick()
		if prev != nil {
			// The displaced incarnation drains a poison write, then
			// closes late (the close-after-reconnect ordering).
			prev.Deliver(statsWithCQI(lte.Subframe(epoch), 0x66, 1))
			m.Tick()
			if epoch%2 == 1 {
				prev.Close()
				m.Tick()
			}
		}
		if !rib.Connected(7) {
			t.Fatalf("flap %d: agent down mid-storm", epoch)
		}
		prev = sess
	}

	if got := rib.UECount(7); got != 1 {
		t.Fatalf("UECount after storm = %d, want 1", got)
	}
	if _, ok := rib.UEStats(7, 0x66); ok {
		t.Fatal("stale-session poison write reached the RIB")
	}
	stats, ok := rib.UEStats(7, 0x46)
	if !ok || stats.CQI != lte.CQI(flaps) {
		t.Errorf("final UE stats = %+v ok=%v, want CQI %d (last incarnation)", stats, ok, flaps)
	}
	if sf, _ := rib.AgentSF(7); sf != 100*flaps {
		t.Errorf("agent SF = %d, want %d", sf, 100*flaps)
	}
}

// TestResyncRestoresRIBAfterRigReconnect runs the full stack (real agent,
// simulated link) through an in-place reconnect: the agent re-Connects on
// a fresh transport pair, and the RIB must recover the complete UE state
// via the snapshot even though periodic reporting is disabled.
func TestResyncRestoresRIBAfterRigReconnect(t *testing.T) {
	opts := controller.DefaultOptions()
	opts.StatsPeriodTTI = 0 // convergence may not lean on periodic reports
	r := newRig(t, opts, transport.Netem{}, transport.Netem{})
	rnti := r.addConnectedUE(radio.Fixed(13))
	r.run(5)
	if !r.master.RIB().Connected(9) {
		t.Fatal("agent not connected")
	}

	// Reconnect on the same link: new master-side session, epoch bump.
	// The UE attached long after the initial connect-time snapshot, so its
	// live state (CQI 13) can only reach the RIB through the new resync.
	r.sess = r.master.HandleAgentSession(r.mEp.Send)
	r.agent.Connect(r.aEp.Send)
	r.run(5)

	if !r.master.RIB().Connected(9) {
		t.Fatal("agent not connected after reconnect")
	}
	stats, ok := r.master.RIB().UEStats(9, rnti)
	if !ok || stats.CQI != 13 {
		t.Fatalf("resynced UE state = %+v ok=%v, want CQI 13", stats, ok)
	}
	if r.master.RIB().UECount(9) != 1 {
		t.Errorf("UECount = %d", r.master.RIB().UECount(9))
	}
}
