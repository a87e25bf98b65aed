package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// frame appends payload to dst as one frame, the way Conn frames a message.
func frame(tb testing.TB, dst, payload []byte) []byte {
	tb.Helper()
	b, err := AppendFrame(dst, func(b []byte) []byte { return append(b, payload...) })
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	var wire []byte
	payloads := [][]byte{
		{},
		{1},
		bytes.Repeat([]byte{0xab}, 100000),
	}
	for _, p := range payloads {
		wire = frame(t, wire, p)
	}
	buf := bytes.NewBuffer(wire)
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: %d bytes, want %d", i, len(got), len(want))
		}
		scratch = got[:0]
	}
	if _, err := ReadFrame(buf, nil); err != io.EOF {
		t.Errorf("expected EOF after frames, got %v", err)
	}
}

// TestAllocGateReadFrame gates the receive path's framing: reading a frame
// into a reused buffer allocates nothing, header included. (Measured:
// 0 allocs/op; 1 while the header was a local array, which escaped
// through io.ReadFull.)
func TestAllocGateReadFrame(t *testing.T) {
	const budget = 0
	wire := frame(t, nil, bytes.Repeat([]byte{0x5a}, 512))
	r := bytes.NewReader(wire)
	var buf []byte
	op := func() {
		r.Reset(wire)
		payload, err := ReadFrame(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = payload[:0]
	}
	op() // size the buffer
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("ReadFrame into a reused buffer: %.1f allocs/op, budget %d", got, budget)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	head := []byte("head")
	big := make([]byte, MaxFrameSize+1)
	b, err := AppendFrame(head, func(b []byte) []byte { return append(b, big...) })
	if !errors.Is(err, ErrFrameTooLarge) || string(b) != "head" {
		t.Errorf("oversized frame = %d bytes, %v", len(b), err)
	}
	// A poisoned header must be rejected without allocating the payload.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read = %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	full := frame(t, nil, []byte("hello"))
	for i := 1; i < len(full); i++ {
		if _, err := ReadFrame(bytes.NewReader(full[:i]), nil); err == nil {
			t.Errorf("prefix of %d bytes should error", i)
		}
	}
}

func echo(seq uint64, sf lte.Subframe) *protocol.Message {
	return protocol.New(1, sf, &protocol.Echo{Seq: seq, SenderSF: sf})
}

func TestSimPairImmediateDelivery(t *testing.T) {
	a, b := NewSimPair(Netem{}, Netem{})
	if err := a.Send(echo(1, 0)); err != nil {
		t.Fatal(err)
	}
	got := b.AdvanceTo(0)
	if len(got) != 1 {
		t.Fatalf("got %d messages, want 1", len(got))
	}
	if got[0].Payload.(*protocol.Echo).Seq != 1 {
		t.Error("payload mismatch")
	}
}

func TestSimPairDelay(t *testing.T) {
	a, b := NewSimPair(Netem{OneWayTTI: 5}, Netem{OneWayTTI: 3})
	a.AdvanceTo(10)
	b.AdvanceTo(10)
	if err := a.Send(echo(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Not delivered before subframe 15.
	for sf := lte.Subframe(11); sf < 15; sf++ {
		got := b.AdvanceTo(sf)
		if len(got) != 0 {
			t.Fatalf("delivered at %d, want 15", sf)
		}
	}
	got := b.AdvanceTo(15)
	if len(got) != 1 {
		t.Fatalf("got %d at sf 15", len(got))
	}
	// Reverse direction uses its own delay.
	if err := b.Send(echo(2, 15)); err != nil {
		t.Fatal(err)
	}
	got = a.AdvanceTo(17)
	if len(got) != 0 {
		t.Fatal("early delivery on reverse path")
	}
	got = a.AdvanceTo(18)
	if len(got) != 1 {
		t.Fatal("missing delivery on reverse path")
	}
}

func TestSimPairFIFOWithinSameDelivery(t *testing.T) {
	a, b := NewSimPair(Netem{}, Netem{})
	for i := uint64(1); i <= 10; i++ {
		if err := a.Send(echo(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	got := b.AdvanceTo(0)
	if len(got) != 10 {
		t.Fatalf("got %d", len(got))
	}
	for i, m := range got {
		if m.Payload.(*protocol.Echo).Seq != uint64(i+1) {
			t.Fatalf("out of order at %d: %d", i, m.Payload.(*protocol.Echo).Seq)
		}
	}
}

func TestSimPairJitterDeterministic(t *testing.T) {
	run := func() []lte.Subframe {
		a, b := NewSimPair(Netem{OneWayTTI: 2, JitterTTI: 4, Seed: 7}, Netem{})
		var deliveries []lte.Subframe
		for i := uint64(0); i < 20; i++ {
			a.AdvanceTo(lte.Subframe(i * 10))
			a.Send(echo(i, 0))
		}
		for sf := lte.Subframe(0); sf < 300; sf++ {
			got := b.AdvanceTo(sf)
			for range got {
				deliveries = append(deliveries, sf)
			}
		}
		return deliveries
	}
	d1, d2 := run(), run()
	if len(d1) != 20 || len(d2) != 20 {
		t.Fatalf("lost messages: %d, %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("non-deterministic jitter at %d", i)
		}
	}
}

func TestSimPairLoss(t *testing.T) {
	a, b := NewSimPair(Netem{LossProb: 1.0}, Netem{})
	for i := uint64(0); i < 10; i++ {
		a.Send(echo(i, 0))
	}
	got := b.AdvanceTo(100)
	if len(got) != 0 {
		t.Errorf("loss=1.0 delivered %d messages", len(got))
	}
	if b.Pending() != 0 {
		t.Error("lost messages should not stay pending")
	}
}

// TestNetemLossMatchesV1 is the evidence that moving Netem to a PCG source
// changed its draws but not its loss process: at LossProb 0.1 and 0.8, 200
// seeded links of 1,000 sends each must drop the same fraction as the same
// draw on math/rand's source with the same seeds. One standard error of the
// difference over 200,000 sends is at most 0.0013; the tolerance is 0.005.
// (Measured: 0.0018 at 0.1 and 0.0030 at 0.8; 0.0002 and 0.0004 over 3,000
// seeds.)
func TestNetemLossMatchesV1(t *testing.T) {
	const (
		seeds, sends = 200, 1000
		tolerance    = 0.005
	)
	for _, p := range []float64{0.1, 0.8} {
		var dropped, droppedV1 int
		for seed := int64(1); seed <= seeds; seed++ {
			a, _ := NewSimPair(Netem{LossProb: p, Seed: seed}, Netem{})
			v1 := rand.New(rand.NewSource(seed))
			for i := uint64(0); i < sends; i++ {
				a.Send(echo(i, 0))
				if v1.Float64() < p {
					droppedV1++
				}
			}
			dropped += int(a.Counters().Dropped)
		}
		got, want := float64(dropped)/(seeds*sends), float64(droppedV1)/(seeds*sends)
		t.Logf("loss %v: dropped %.4f, %.4f on math/rand's source", p, got, want)
		if math.Abs(got-want) > tolerance {
			t.Errorf("loss %v: dropped %.4f of sends, %.4f on math/rand's source", p, got, want)
		}
	}
}

func TestSimMeterCountsByCategory(t *testing.T) {
	a, b := NewSimPair(Netem{}, Netem{})
	a.Send(echo(1, 0))
	a.Send(protocol.New(1, 0, &protocol.StatsReply{ID: 1, SF: 0}))
	a.Send(protocol.New(1, 0, &protocol.SubframeTrigger{SF: 0}))
	_ = b
	m := a.Meter()
	if m.Bytes(protocol.CatManagement) == 0 ||
		m.Bytes(protocol.CatStats) == 0 ||
		m.Bytes(protocol.CatSync) == 0 {
		t.Errorf("meter snapshot incomplete: %v", m.Snapshot())
	}
	if m.Messages(protocol.CatStats) != 1 {
		t.Errorf("stats messages = %d", m.Messages(protocol.CatStats))
	}
}

// TestNetemDirectionsDecorrelated is the duplex-seed regression test: the
// two directions of one link used to draw from identically seeded
// generators (default seed 42 on both sides), producing mirror-image
// jitter and loss patterns. The per-direction seed derivation must give
// each endpoint its own sequence while staying deterministic.
func TestNetemDirectionsDecorrelated(t *testing.T) {
	imp := Netem{OneWayTTI: 2, JitterTTI: 8} // Seed 0: the shared default
	deliveries := func() (fwd, rev []lte.Subframe) {
		a, b := NewSimPair(imp, imp)
		for sf := lte.Subframe(0); sf < 1000; sf++ {
			if sf%20 == 0 && sf < 800 {
				a.Send(echo(uint64(sf), sf))
				b.Send(echo(uint64(sf), sf))
			}
			for range b.AdvanceTo(sf) {
				fwd = append(fwd, sf)
			}
			for range a.AdvanceTo(sf) {
				rev = append(rev, sf)
			}
		}
		return fwd, rev
	}
	fwd1, rev1 := deliveries()
	if len(fwd1) != 40 || len(rev1) != 40 {
		t.Fatalf("lost messages: fwd %d rev %d", len(fwd1), len(rev1))
	}
	mirrored := true
	for i := range fwd1 {
		if fwd1[i] != rev1[i] {
			mirrored = false
			break
		}
	}
	if mirrored {
		t.Error("duplex directions draw mirror-image jitter (shared seed regression)")
	}
	// Still deterministic run to run.
	fwd2, rev2 := deliveries()
	for i := range fwd1 {
		if fwd1[i] != fwd2[i] || rev1[i] != rev2[i] {
			t.Fatal("per-direction seeding broke determinism")
		}
	}
}

func TestSimEndpointLinkDownAndDropInflight(t *testing.T) {
	a, b := NewSimPair(Netem{OneWayTTI: 5}, Netem{})
	a.Send(echo(1, 0)) // in flight when the cut happens
	a.SetDown(true)
	b.DropInflight()
	if b.Pending() != 0 {
		t.Fatal("in-flight message survived the cut")
	}
	a.Send(echo(2, 0))
	if got := b.AdvanceTo(100); len(got) != 0 {
		t.Fatalf("cut link delivered %d messages", len(got))
	}
	if !a.Down() {
		t.Error("Down() = false on a cut endpoint")
	}
	a.SetDown(false)
	a.Send(echo(3, 100))
	got := b.AdvanceTo(105)
	if len(got) != 1 || got[0].Payload.(*protocol.Echo).Seq != 3 {
		t.Fatalf("restored link delivery = %+v", got)
	}
}

func TestSetNetem(t *testing.T) {
	a, b := NewSimPair(Netem{}, Netem{})
	a.Send(echo(1, 0))
	if got := b.AdvanceTo(0); len(got) != 1 {
		t.Fatal("baseline delivery failed")
	}
	a.SetNetem(Netem{OneWayTTI: 10})
	a.AdvanceTo(5)
	a.Send(echo(2, 5))
	if got := b.AdvanceTo(14); len(got) != 0 {
		t.Fatal("new delay not applied")
	}
	if got := b.AdvanceTo(15); len(got) != 1 {
		t.Fatal("delayed message missing")
	}
}

func TestTCPConnRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	// client -> server
	want := &protocol.StatsReply{ID: 3, SF: 55, UEs: protocol.UETableOf(protocol.UEStats{RNTI: 0x46, CQI: 9})}
	if err := client.Send(protocol.New(2, 55, want)); err != nil {
		t.Fatal(err)
	}
	got := <-server.Recv()
	if got.ENB != 2 || got.Payload.(*protocol.StatsReply).UEs.CQI[0] != 9 {
		t.Errorf("server received %+v", got)
	}

	// server -> client
	if err := server.Send(protocol.New(2, 56, &protocol.DLSchedule{Cell: 0, TargetSF: 60})); err != nil {
		t.Fatal(err)
	}
	reply := <-client.Recv()
	if reply.Payload.Kind() != protocol.KindDLSchedule {
		t.Errorf("client received %v", reply.Payload.Kind())
	}

	// Metering on both sides.
	if client.Meter().Bytes(protocol.CatStats) == 0 {
		t.Error("client meter empty")
	}
	if server.Meter().Bytes(protocol.CatCommands) == 0 {
		t.Error("server meter empty")
	}
}

// TestConnSendTooLarge: a message whose frame would exceed MaxFrameSize,
// alone or in a batch, is refused with ErrFrameTooLarge before a byte is
// written, and the connection goes on carrying what follows.
func TestConnSendTooLarge(t *testing.T) {
	local, remote := net.Pipe()
	client, server := NewConn(local, 1), NewConn(remote, 1)
	defer client.Close()
	defer server.Close()
	big := protocol.New(1, 0, &protocol.PolicyReconf{Doc: strings.Repeat("x", MaxFrameSize)})
	if err := client.Send(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Send = %v", err)
	}
	if err := client.SendBatch([]*protocol.Message{echo(1, 1), big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized SendBatch = %v", err)
	}
	if n := client.Meter().TotalBytes(); n != 0 {
		t.Fatalf("refused sends metered %d bytes", n)
	}
	if err := client.Send(echo(9, 3)); err != nil {
		t.Fatal(err)
	}
	select {
	case m, ok := <-server.Recv():
		if !ok || m.Payload.(*protocol.Echo).Seq != 9 {
			t.Fatalf("peer received %+v (open %v), want echo 9 first", m, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer received nothing")
	}
}

func TestTCPConnCloseEndsRecv(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted

	client.Close()
	if _, ok := <-server.Recv(); ok {
		t.Error("server Recv should close after peer disconnect")
	}
	server.Close()
	if err := client.Err(); err != nil {
		t.Errorf("local close should not set Err, got %v", err)
	}
}

func TestTCPConnManyMessages(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	const n = 2000
	go func() {
		for i := uint64(0); i < n; i++ {
			if err := client.Send(echo(i, lte.Subframe(i))); err != nil {
				return
			}
		}
	}()
	for i := uint64(0); i < n; i++ {
		m, ok := <-server.Recv()
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if m.Payload.(*protocol.Echo).Seq != i {
			t.Fatalf("out of order at %d: %d", i, m.Payload.(*protocol.Echo).Seq)
		}
	}
}

func TestTCPConnRecvBatch(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	defer server.Close()

	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := client.Send(echo(i, lte.Subframe(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Give the reader goroutine time to buffer the whole burst, so the
	// batching assertion below is not at the mercy of scheduling.
	time.Sleep(200 * time.Millisecond)

	// Batches must drain everything buffered, preserve order, and need
	// far fewer calls than messages once the reader has buffered a burst.
	var got []uint64
	batch := make([]*protocol.Message, 0, 64)
	calls := 0
	for len(got) < n {
		batch = batch[:0]
		if !server.RecvBatch(&batch) {
			t.Fatalf("connection closed after %d messages", len(got))
		}
		calls++
		for _, m := range batch {
			got = append(got, m.Payload.(*protocol.Echo).Seq)
		}
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, seq)
		}
	}
	if calls >= n {
		t.Errorf("RecvBatch made %d calls for %d messages (no batching)", calls, n)
	}

	// After the peer closes, a final call reports the end of the stream.
	client.Close()
	batch = batch[:0]
	for server.RecvBatch(&batch) {
		batch = batch[:0]
	}
}

// TestSimEndpointHandsOverCopy pins what a simulated link delivers: the
// receiver's own pooled copy of each message, never the sender's memory,
// metered as the frame the TCP path would write.
func TestSimEndpointHandsOverCopy(t *testing.T) {
	report := func() (*protocol.Message, *protocol.StatsReply) {
		rep := &protocol.StatsReply{ID: 3, SF: 40, Cells: []protocol.CellStats{{UsedPRB: 20, TotalPRB: 50}}}
		for i := 0; i < 4; i++ {
			rep.UEs.Append(&protocol.UEStats{
				RNTI: lte.RNTI(0x46 + i), CQI: lte.CQI(5 + i), DLQueue: uint64(1000 * i),
				SubbandCQI: []uint8{7, uint8(i)}, LCs: []protocol.LCReport{{LCID: 3, Bytes: uint64(i)}},
			})
		}
		return protocol.New(1, 40, rep), rep
	}
	// deliverOne advances b until one message arrived and returns it.
	deliverOne := func(t *testing.T, b *SimEndpoint) *protocol.Message {
		t.Helper()
		got := b.AdvanceTo(100)
		if len(got) != 1 {
			t.Fatalf("delivered %d messages, want 1", len(got))
		}
		return got[0]
	}

	t.Run("sender overwrites after Send", func(t *testing.T) {
		a, b := NewSimPair(Netem{}, Netem{})
		m, rep := report()
		want := protocol.Encode(m)
		a.Send(m)
		rep.SF++
		rep.Cells[0].UsedPRB = 0
		for i := range rep.UEs.CQI {
			rep.UEs.CQI[i], rep.UEs.DLQueue[i] = 1, 0
		}
		rep.UEs.Subbands[0], rep.UEs.LCBytes[0] = 0, 99
		rep.UEs.Resize(1)
		got := deliverOne(t, b)
		if enc := protocol.Encode(got); !bytes.Equal(enc, want) {
			t.Fatalf("delivered message follows the sender's edits:\n got %x\nwant %x", enc, want)
		}
		got.Release()
	})

	t.Run("each duplicate is its own copy", func(t *testing.T) {
		a, b := NewSimPair(Netem{DupProb: 1}, Netem{})
		m, _ := report()
		want := protocol.Encode(m)
		a.Send(m)
		got := b.AdvanceTo(100)
		if len(got) != 2 || got[0] == got[1] || got[0].Payload == got[1].Payload {
			t.Fatalf("dup=1 delivered %d messages, want 2 distinct copies", len(got))
		}
		got[0].Release()
		// Whatever the free list hands out next may be the released copy.
		m2, rep2 := report()
		rep2.UEs.Resize(1)
		a.SetNetem(Netem{})
		a.Send(m2)
		other := deliverOne(t, b)
		if enc := protocol.Encode(got[1]); !bytes.Equal(enc, want) {
			t.Fatalf("releasing one duplicate changed the other:\n got %x\nwant %x", enc, want)
		}
		got[1].Release()
		other.Release()
	})

	t.Run("a corrupt frame carries nothing", func(t *testing.T) {
		a, b := NewSimPair(Netem{CorruptProb: 1}, Netem{})
		m, _ := report()
		a.Send(m)
		if got := b.AdvanceTo(100); len(got) != 0 {
			t.Fatalf("corrupt frame delivered %d messages", len(got))
		}
		if c := a.Counters(); c.Sent != 1 || c.Corrupted != 1 || c.Delivered != 0 {
			t.Fatalf("counters = %+v, want 1 sent / 1 corrupted / 0 delivered", c)
		}
	})

	t.Run("DropInflight releases what is pending", func(t *testing.T) {
		a, b := NewSimPair(Netem{OneWayTTI: 5}, Netem{})
		m, _ := report()
		a.Send(m)
		a.Send(echo(1, 0))
		held := []*protocol.Message{b.pending[0].msg, b.pending[1].msg}
		b.DropInflight()
		if b.Pending() != 0 {
			t.Fatalf("%d messages still in flight", b.Pending())
		}
		for i, h := range held {
			if h.Payload != nil {
				t.Errorf("dropped message %d was not released: %+v", i, h)
			}
		}
		if got := b.AdvanceTo(100); len(got) != 0 {
			t.Fatalf("dropped messages delivered: %d", len(got))
		}
	})

	t.Run("metered bytes are the TCP frame", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("..", "protocol", "testdata", "wire", "*.hex"))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[protocol.Kind]bool{}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := hex.DecodeString(strings.ReplaceAll(string(b), "\n", ""))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			m, err := protocol.Decode(raw)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			k := m.Payload.Kind()
			seen[k] = true
			a, _ := NewSimPair(Netem{}, Netem{})
			a.Send(m)
			want := int64(len(protocol.AppendMessage(nil, m)) + FrameOverhead)
			if got := a.Meter().Bytes(k.Category()); got != want {
				t.Errorf("%v: metered %d bytes, want %d", k, got, want)
			}
		}
		for k := protocol.KindHello; k <= protocol.KindStateSnapshot; k++ {
			if !seen[k] {
				t.Errorf("kind %v not metered: no frame in the wire corpus", k)
			}
		}
	})
}
