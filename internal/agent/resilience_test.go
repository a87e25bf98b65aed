package agent

import (
	"reflect"
	"testing"

	"flexran/internal/protocol"
	"flexran/internal/radio"
)

func TestConnectBumpsEpochAndRetransmitsHello(t *testing.T) {
	h := newHarness(t, Options{})
	if got := h.agent.Epoch(); got != 1 {
		t.Fatalf("epoch after first Connect = %d, want 1", got)
	}
	hello := h.lastOf(protocol.KindHello).Payload.(*protocol.Hello)
	if hello.Epoch != 1 {
		t.Errorf("Hello.Epoch = %d, want 1", hello.Epoch)
	}
	// No ack: the agent must keep retransmitting from the TTI loop.
	unacked := 3*DefaultHelloRetryTTI + DefaultHelloRetryTTI/2
	for i := 0; i < unacked; i++ {
		h.enb.Step()
	}
	if n := h.countOf(protocol.KindHello); n < 3 {
		t.Errorf("Hellos after %d unacked TTIs = %d, want >= 3 (retry every %d)", unacked, n, DefaultHelloRetryTTI)
	}
	// Ack for the current epoch stops the retransmission.
	h.agent.Deliver(protocol.New(5, 0, &protocol.HelloAck{
		Version: protocol.ProtocolVersion, Epoch: h.agent.Epoch(),
	}))
	if !h.agent.HelloAcked() {
		t.Fatal("HelloAck for current epoch not accepted")
	}
	before := h.countOf(protocol.KindHello)
	for i := 0; i < 4*DefaultHelloRetryTTI; i++ {
		h.enb.Step()
	}
	if n := h.countOf(protocol.KindHello); n != before {
		t.Errorf("Hello retransmitted after ack: %d -> %d", before, n)
	}
}

func TestStaleEpochAckDoesNotSilenceHandshake(t *testing.T) {
	h := newHarness(t, Options{})
	h.agent.Connect(h.capture) // reconnect: epoch 2
	// A leftover ack for epoch 1 arrives late: must not stop the epoch-2
	// handshake. An epoch-0 ack (pre-epoch master) must.
	h.agent.Deliver(protocol.New(5, 0, &protocol.HelloAck{Epoch: 1}))
	if h.agent.HelloAcked() {
		t.Fatal("stale-epoch ack accepted")
	}
	h.agent.Deliver(protocol.New(5, 0, &protocol.HelloAck{Epoch: 0}))
	if !h.agent.HelloAcked() {
		t.Error("legacy epoch-0 ack rejected")
	}
}

func TestResyncRequestAnswersFullSnapshot(t *testing.T) {
	h := newHarness(t, Options{})
	rnti := h.addConnectedUE(radio.Fixed(12))
	h.agent.Deliver(protocol.New(5, 0, &protocol.StatsRequest{
		ID: 4, Mode: protocol.StatsPeriodic, PeriodTTI: 7, Flags: protocol.StatsAll,
	}))
	h.agent.Deliver(protocol.New(5, 0, &protocol.ResyncRequest{Epoch: h.agent.Epoch()}))
	m := h.lastOf(protocol.KindStateSnapshot)
	if m == nil {
		t.Fatal("no StateSnapshot sent")
	}
	snap := m.Payload.(*protocol.StateSnapshot)
	if snap.Epoch != h.agent.Epoch() || snap.SF != h.enb.Now() {
		t.Errorf("snapshot stamp = epoch %d sf %d", snap.Epoch, snap.SF)
	}
	if !reflect.DeepEqual(snap.Config, h.enb.Config()) {
		t.Errorf("snapshot config = %+v", snap.Config)
	}
	if snap.UEs.Len() != 1 || snap.UEs.RNTI[0] != rnti || snap.UEs.CQI[0] != 12 {
		t.Errorf("snapshot UEs = %+v", snap.UEs)
	}
	if len(snap.Configs) != 1 || snap.Configs[0].IMSI != 1 || snap.Configs[0].RNTI != rnti {
		t.Errorf("snapshot UE configs = %+v", snap.Configs)
	}
	if len(snap.Cells) != 1 {
		t.Errorf("snapshot cells = %+v", snap.Cells)
	}
	if len(snap.Subs) != 1 || snap.Subs[0].ID != 4 || snap.Subs[0].PeriodTTI != 7 {
		t.Errorf("snapshot subs = %+v", snap.Subs)
	}
}

func TestRestartDropsVolatileStateKeepsEpoch(t *testing.T) {
	h := newHarness(t, Options{})
	h.agent.Deliver(protocol.New(5, 0, &protocol.StatsRequest{
		ID: 1, Mode: protocol.StatsPeriodic, PeriodTTI: 1, Flags: protocol.StatsAll,
	}))
	h.agent.Restart()
	if h.agent.Epoch() != 1 {
		t.Errorf("epoch after restart = %d, want 1 (persisted)", h.agent.Epoch())
	}
	// Subscriptions are gone: stepping emits no reports, and with no
	// transport nothing counts as dropped either (send detached).
	sent := len(h.sent)
	h.enb.Step()
	if len(h.sent) != sent {
		t.Error("restarted agent still emitting on the old transport")
	}
	h.agent.Connect(h.capture)
	if h.agent.Epoch() != 2 {
		t.Errorf("epoch after reconnect = %d, want 2", h.agent.Epoch())
	}
	hello := h.lastOf(protocol.KindHello).Payload.(*protocol.Hello)
	if hello.Epoch != 2 {
		t.Errorf("reconnect Hello epoch = %d, want 2", hello.Epoch)
	}
	h.enb.Step()
	if h.countOf(protocol.KindStatsReply) != 0 {
		t.Error("subscription survived the restart")
	}
}
