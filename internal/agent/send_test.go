package agent

import (
	"bytes"
	"testing"

	"flexran/internal/enb"
	"flexran/internal/protocol"
	"flexran/internal/radio"
)

// reportingAgent returns an eNodeB with n attached fixed-CQI UEs whose
// agent, welcomed by the master, sends a SubframeTrigger and a full-stats
// periodic report every subframe through send.
func reportingAgent(t *testing.T, n int, send func(*protocol.Message) error) *enb.ENB {
	t.Helper()
	e := enb.New(enb.Config{ID: 5, Seed: 1})
	a := New(e, Options{})
	a.Connect(send)
	a.Deliver(protocol.New(5, 0, &protocol.HelloAck{Version: protocol.ProtocolVersion, Epoch: a.Epoch()}))
	if err := a.Reconfigure("agent:\n  sync_period: 1\n"); err != nil {
		t.Fatal(err)
	}
	a.Deliver(protocol.New(5, 0, &protocol.StatsRequest{
		ID: 1, Mode: protocol.StatsPeriodic, PeriodTTI: 1, Flags: protocol.StatsAll,
	}))
	for i := 0; i < n; i++ {
		if _, err := e.AddUE(enb.UEParams{IMSI: uint64(i + 1), Channel: radio.Fixed(12)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		e.Step() // complete attach and warm the free lists and scratch
	}
	return e
}

// TestAllocGateAgentSends gates the agent's two per-TTI messages: one
// subframe of an eNodeB whose agent sends the sync trigger and a 16-UE
// full-stats periodic report to a transport that keeps nothing. Both
// messages come from the protocol free lists, and the send consumes them
// (this one releases them), so the subframe allocates nothing. (Measured:
// 0 allocs/op; 3 while the trigger payload and both envelopes were built
// per message.)
func TestAllocGateAgentSends(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race (sync.Pool caching is randomized)")
	}
	var triggers, reports int
	e := reportingAgent(t, 16, func(m *protocol.Message) error {
		switch m.Payload.Kind() {
		case protocol.KindSubframeTrigger:
			triggers++
		case protocol.KindStatsReply:
			reports++
		}
		m.Release()
		return nil
	})
	triggers, reports = 0, 0
	if got := testing.AllocsPerRun(1000, e.Step); got != 0 {
		t.Errorf("agent subframe with trigger and report: %.1f allocs/op, want 0", got)
	}
	if triggers != 1001 || reports != 1001 { // AllocsPerRun warms up with one extra run
		t.Errorf("%d triggers and %d reports over 1,001 subframes, want one of each per subframe", triggers, reports)
	}
}

// TestAgentHandsOffPooledSends pins the send contract: send consumes the
// agent's per-TTI messages. The transport gets owned messages from the free
// lists and may keep them, and the agent does not touch one once send
// returns, so a kept message still holds exactly what was sent.
func TestAgentHandsOffPooledSends(t *testing.T) {
	type sent struct {
		msg  *protocol.Message
		wire []byte
	}
	var got []sent
	e := reportingAgent(t, 4, func(m *protocol.Message) error {
		got = append(got, sent{msg: m, wire: protocol.AppendMessage(nil, m)})
		return nil
	})
	got = got[:0]
	sf := e.Now()
	e.Step()
	if len(got) != 2 {
		t.Fatalf("%d messages in one subframe, want the trigger and the report", len(got))
	}
	for _, s := range got {
		if !s.msg.Owned() {
			t.Errorf("the %v message the agent sent is not from the free lists", s.msg.Payload.Kind())
		}
		if w := protocol.AppendMessage(nil, s.msg); !bytes.Equal(w, s.wire) {
			t.Errorf("the %v message changed after the agent sent it", s.msg.Payload.Kind())
		}
		if s.msg.ENB != 5 || s.msg.SF != sf {
			t.Errorf("%v envelope = eNodeB %d sf %d, want 5 and %d", s.msg.Payload.Kind(), s.msg.ENB, s.msg.SF, sf)
		}
	}
	if tr, ok := got[0].msg.Payload.(*protocol.SubframeTrigger); !ok || tr.SF != sf {
		t.Errorf("first message = %+v, want the trigger for sf %d", got[0].msg.Payload, sf)
	}
	rep, ok := got[1].msg.Payload.(*protocol.StatsReply)
	if !ok || rep.ID != 1 || rep.SF != sf || rep.UEs.Len() != 4 || len(rep.Cells) != 1 {
		t.Fatalf("second message = %+v, want the 4-UE report for sf %d", got[1].msg.Payload, sf)
	}
	for i := 0; i < 4; i++ {
		if rep.UEs.CQI[i] != 12 || rep.UEs.RNTI[i] == 0 {
			t.Errorf("report row %d: RNTI %d CQI %d, want a UE at CQI 12", i, rep.UEs.RNTI[i], rep.UEs.CQI[i])
		}
	}
	for _, s := range got {
		s.msg.Release()
	}
}

// TestReportUseAfterSendPanics shows the race build's poison at work: with
// a transport that releases what it is sent once encoded, as Conn.Send
// does, reading a report after the agent sent it panics — even after the
// next subframe drew its messages from the free lists, which could
// otherwise have handed the released envelope out again.
func TestReportUseAfterSendPanics(t *testing.T) {
	if !raceEnabled {
		t.Skip("released envelopes are poisoned only under -race")
	}
	var sent []*protocol.Message
	e := reportingAgent(t, 4, func(m *protocol.Message) error {
		sent = append(sent, m)
		m.Release()
		return nil
	})
	sent = sent[:0]
	e.Step()
	e.Step()
	if len(sent) != 4 {
		t.Fatalf("%d messages in two subframes, want a trigger and a report in each", len(sent))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a report after the agent sent it did not panic")
		}
	}()
	_ = sent[1].Payload.(*protocol.StatsReply).UEs.Len()
}
