package transport

import (
	"bytes"
	"io"
	"net"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// ownedReport returns an owned n-UE report from the free lists, filled in
// place as an agent fills one.
func ownedReport(sf lte.Subframe, n int) *protocol.Message {
	m := protocol.AcquirePooled(1, sf, protocol.KindStatsReply)
	rep := m.Payload.(*protocol.StatsReply)
	rep.ID, rep.SF = 1, sf
	rep.UEs.Resize(n)
	for i := 0; i < n; i++ {
		rep.UEs.RNTI[i] = lte.RNTI(0x46 + i)
		rep.UEs.CQI[i] = lte.CQI(1 + (int(sf)+i)%15)
		rep.UEs.DLQueue[i] = uint64(int(sf) * (i + 1))
	}
	return m
}

// TestSimEndpointConsumesOwned pins the owned path of a simulated link:
// Send passes an owned message on as it is, holds it until it is
// delivered, gives a duplicate a message of its own, and releases what the
// link loses, corrupts, cuts or drops.
func TestSimEndpointConsumesOwned(t *testing.T) {
	t.Run("an owned message travels as it is", func(t *testing.T) {
		a, b := NewSimPair(Netem{}, Netem{})
		m := ownedReport(40, 4)
		a.Send(m)
		got := b.AdvanceTo(100)
		if len(got) != 1 || got[0] != m {
			t.Fatalf("delivered %v, want the sent message itself", got)
		}
		got[0].Release()
	})

	for _, tc := range []struct {
		name string
		lose func(a, b *SimEndpoint, m *protocol.Message)
	}{
		{"lost", func(a, b *SimEndpoint, m *protocol.Message) { a.SetNetem(Netem{LossProb: 1}); a.Send(m) }},
		{"corrupted", func(a, b *SimEndpoint, m *protocol.Message) { a.SetNetem(Netem{CorruptProb: 1}); a.Send(m) }},
		{"cut", func(a, b *SimEndpoint, m *protocol.Message) { a.SetDown(true); a.Send(m) }},
		{"dropped in flight", func(a, b *SimEndpoint, m *protocol.Message) {
			a.SetNetem(Netem{OneWayTTI: 5})
			a.Send(m)
			b.DropInflight()
		}},
	} {
		t.Run("a "+tc.name+" message goes back to the free list", func(t *testing.T) {
			a, b := NewSimPair(Netem{}, Netem{})
			m := ownedReport(40, 4)
			tc.lose(a, b, m)
			if m.Payload != nil {
				t.Errorf("the %s message was not released: %+v", tc.name, m)
			}
			if got := b.AdvanceTo(100); len(got) != 0 {
				t.Errorf("the %s message was delivered", tc.name)
			}
		})
	}

	t.Run("a duplicate is a message of its own", func(t *testing.T) {
		a, b := NewSimPair(Netem{DupProb: 1}, Netem{})
		m := ownedReport(40, 4)
		want := protocol.Encode(m)
		a.Send(m)
		got := b.AdvanceTo(100)
		if len(got) != 2 || got[0] == got[1] || got[0].Payload == got[1].Payload || got[0] != m && got[1] != m {
			t.Fatalf("dup=1 delivered %v, want the message and a copy of its own", got)
		}
		for i, g := range got {
			if enc := protocol.Encode(g); !bytes.Equal(enc, want) {
				t.Errorf("delivery %d differs from what was sent:\n got %x\nwant %x", i, enc, want)
			}
		}
		got[0].Release()
		got[1].Release()
	})

	t.Run("a reordered message is delivered intact", func(t *testing.T) {
		a, b := NewSimPair(Netem{ReorderProb: 1, ReorderTTI: 5}, Netem{})
		held := ownedReport(40, 4)
		want := protocol.Encode(held)
		a.Send(held)
		a.SetNetem(Netem{})
		// Traffic that overtakes it cycles the free lists while it is held.
		for sf := lte.Subframe(1); sf < 5; sf++ {
			a.Send(ownedReport(40+sf, 4))
			for _, m := range b.AdvanceTo(sf) {
				if m == held {
					t.Fatalf("sf %d: the held message was delivered early", sf)
				}
				m.Release()
			}
		}
		got := b.AdvanceTo(100)
		if len(got) != 1 || got[0] != held {
			t.Fatalf("delivered %v after the hold, want the held message", got)
		}
		if enc := protocol.Encode(got[0]); !bytes.Equal(enc, want) {
			t.Fatalf("the held message changed in flight:\n got %x\nwant %x", enc, want)
		}
		got[0].Release()
	})
}

// TestAllocGateSimLinkOwnedSends gates the owned path over a lossy,
// corrupting, jittered link: an agent's report from the free lists sent,
// and whatever arrived applied and released, each subframe. A lost or
// corrupted report goes back to the free list, so the link allocates
// nothing. (Measured: 0 allocs/op.)
func TestAllocGateSimLinkOwnedSends(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race (released envelopes are retired, and sync.Pool caching is randomized)")
	}
	a, b := NewSimPair(Netem{OneWayTTI: 1, JitterTTI: 2, LossProb: 0.2, CorruptProb: 0.2, Seed: 7}, Netem{})
	var batch []*protocol.Message
	sf := lte.Subframe(0)
	op := func() {
		sf++
		a.Send(ownedReport(sf, 16))
		batch = batch[:0]
		b.AdvanceInto(sf, &batch)
		for _, m := range batch {
			m.Release()
		}
	}
	for i := 0; i < 200; i++ {
		op() // warm the free lists and the in-flight heap
	}
	if got := testing.AllocsPerRun(1000, op); got != 0 {
		t.Errorf("owned report over a lossy, corrupting link: %.1f allocs/op, want 0", got)
	}
	if c := a.Counters(); c.Dropped == 0 || c.Corrupted == 0 || c.Delivered == 0 {
		t.Errorf("counters %+v: the gate did not lose, corrupt and deliver", c)
	}
}

// TestConnSendConsumes pins the TCP half of the send rule: Send and
// SendBatch release every message once it is encoded, whether the write
// then succeeds or fails.
func TestConnSendConsumes(t *testing.T) {
	local, peer := net.Pipe()
	go io.Copy(io.Discard, peer) //nolint:errcheck // ends when the pipe closes
	c := NewConn(local, 4)
	defer peer.Close()
	released := func(what string, ms ...*protocol.Message) {
		t.Helper()
		for i, m := range ms {
			if m.Payload != nil {
				t.Errorf("%s: message %d was not released", what, i)
			}
		}
	}
	one := ownedReport(1, 4)
	if err := c.Send(one); err != nil {
		t.Fatal(err)
	}
	released("Send", one)
	batch := []*protocol.Message{ownedReport(2, 4), ownedReport(3, 4)}
	if err := c.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	released("SendBatch", batch...)
	c.Close()
	failed := ownedReport(4, 4)
	if err := c.Send(failed); err == nil {
		t.Fatal("Send on a closed connection succeeded")
	}
	released("a failed Send", failed)
}
