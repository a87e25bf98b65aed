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
// messages come from the protocol free lists and go back once send
// returns, so the subframe allocates nothing. (Measured: 0 allocs/op; 3
// while the trigger payload and both envelopes were built per message.)
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

// TestAgentReleasesPooledSends pins the send contract: the agent releases
// its per-TTI messages when send returns, so a transport that keeps the
// pointer keeps a released, empty message, and one that keeps
// protocol.ClonePooled(m) keeps exactly what was sent.
func TestAgentReleasesPooledSends(t *testing.T) {
	type sent struct {
		raw, clone *protocol.Message
		wire       []byte
	}
	var got []sent
	e := reportingAgent(t, 4, func(m *protocol.Message) error {
		got = append(got, sent{raw: m, clone: protocol.ClonePooled(m), wire: protocol.AppendMessage(nil, m)})
		return nil
	})
	got = got[:0]
	sf := e.Now()
	e.Step()
	if len(got) != 2 {
		t.Fatalf("%d messages in one subframe, want the trigger and the report", len(got))
	}
	for _, s := range got {
		if s.raw.Payload != nil {
			t.Errorf("the %v message the agent sent was not released", s.clone.Payload.Kind())
		}
		if w := protocol.AppendMessage(nil, s.clone); !bytes.Equal(w, s.wire) {
			t.Errorf("the clone of the %v message differs from what was sent", s.clone.Payload.Kind())
		}
		if s.clone.ENB != 5 || s.clone.SF != sf {
			t.Errorf("%v envelope = eNodeB %d sf %d, want 5 and %d", s.clone.Payload.Kind(), s.clone.ENB, s.clone.SF, sf)
		}
	}
	if tr, ok := got[0].clone.Payload.(*protocol.SubframeTrigger); !ok || tr.SF != sf {
		t.Errorf("first message = %+v, want the trigger for sf %d", got[0].clone.Payload, sf)
	}
	rep, ok := got[1].clone.Payload.(*protocol.StatsReply)
	if !ok || rep.ID != 1 || rep.SF != sf || rep.UEs.Len() != 4 || len(rep.Cells) != 1 {
		t.Fatalf("second message = %+v, want the 4-UE report for sf %d", got[1].clone.Payload, sf)
	}
	for i := 0; i < 4; i++ {
		if rep.UEs.CQI[i] != 12 || rep.UEs.RNTI[i] == 0 {
			t.Errorf("report row %d: RNTI %d CQI %d, want a UE at CQI 12", i, rep.UEs.RNTI[i], rep.UEs.CQI[i])
		}
	}
}
