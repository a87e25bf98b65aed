package protocol

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"flexran/internal/lte"
	"flexran/internal/wire"
)

// roundTrip encodes a message and decodes it back, comparing payloads.
func roundTrip(t *testing.T, p Payload) *Message {
	t.Helper()
	in := New(7, 12345, p)
	b := Encode(in)
	out, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%v): %v", p.Kind(), err)
	}
	if out.ENB != in.ENB || out.SF != in.SF {
		t.Errorf("envelope mismatch: %+v vs %+v", out, in)
	}
	if out.Payload.Kind() != p.Kind() {
		t.Fatalf("kind = %v, want %v", out.Payload.Kind(), p.Kind())
	}
	if !reflect.DeepEqual(out.Payload, p) {
		t.Errorf("%v payload mismatch:\n got %#v\nwant %#v", p.Kind(), out.Payload, p)
	}
	return out
}

func TestRoundTripAllKinds(t *testing.T) {
	seen := map[Kind]bool{}
	for _, p := range corpusPayloads() {
		roundTrip(t, p)
		seen[p.Kind()] = true
	}
	// Every declared kind must be covered by this test.
	for k := KindHello; k < kindMax; k++ {
		if !seen[k] {
			t.Errorf("kind %v has no round-trip coverage", k)
		}
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	in := New(1, 2, &Echo{Seq: 1})
	b := Encode(in)
	// Corrupt the kind varint (field 1, first bytes: tag 0x08, value).
	if b[0] != 0x08 {
		t.Fatalf("unexpected leading tag %#x", b[0])
	}
	b[1] = 0x7f // kind 127: unknown
	if _, err := Decode(b); err == nil {
		t.Error("unknown kind should fail to decode")
	}
}

func TestDecodeRejectsMissingPayload(t *testing.T) {
	// An envelope with no payload field.
	var m Message
	b := []byte{0x08, byte(KindEcho)} // kind only
	if err := (&m).UnmarshalWire(wire.NewDecoder(b)); err == nil {
		t.Error("missing payload should fail")
	}
}

func TestCategories(t *testing.T) {
	cases := map[Kind]string{
		KindHello:            CatManagement,
		KindEcho:             CatManagement,
		KindENBConfigReply:   CatManagement,
		KindUEEvent:          CatManagement,
		KindControlAck:       CatManagement,
		KindStatsRequest:     CatStats,
		KindStatsReply:       CatStats,
		KindSubframeTrigger:  CatSync,
		KindDLSchedule:       CatCommands,
		KindULSchedule:       CatCommands,
		KindVSFUpdate:        CatDelegation,
		KindPolicyReconf:     CatDelegation,
		KindMeasReport:       CatStats,
		KindHandoverCommand:  CatCommands,
		KindHandoverComplete: CatManagement,
	}
	for k, want := range cases {
		if got := k.Category(); got != want {
			t.Errorf("%v category = %q, want %q", k, got, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if KindStatsReply.String() != "stats_reply" {
		t.Errorf("got %q", KindStatsReply)
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("got %q", Kind(200))
	}
}

func TestStatsModeStrings(t *testing.T) {
	for m, want := range map[StatsMode]string{
		StatsOneOff: "one-off", StatsPeriodic: "periodic",
		StatsTriggered: "triggered", StatsMode(99): "unknown",
	} {
		if m.String() != want {
			t.Errorf("%d = %q, want %q", m, m, want)
		}
	}
}

func TestUEEventTypeStrings(t *testing.T) {
	for e, want := range map[UEEventType]string{
		UEEventAttach: "attach", UEEventDetach: "detach",
		UEEventRandomAccess:      "random_access",
		UEEventSchedulingRequest: "scheduling_request",
		UEEventType(99):          "unknown",
	} {
		if e.String() != want {
			t.Errorf("%d = %q, want %q", e, e, want)
		}
	}
}

func TestStatsReplySizeGrowsSublinearly(t *testing.T) {
	// The per-message framing is amortized across UE entries: bytes per UE
	// must shrink as the report aggregates more UEs (the Fig. 7a effect).
	size := func(n int) int {
		r := &StatsReply{ID: 1, SF: 1000}
		for i := 0; i < n; i++ {
			r.UEs.Append(&UEStats{
				RNTI: lte.RNTI(0x46 + i), CQI: 10,
				DLQueue: 100000, DLRateKbps: 5000, LastSchedSF: 999,
			})
		}
		return len(Encode(New(1, 1000, r)))
	}
	perUE10 := float64(size(10)) / 10
	perUE50 := float64(size(50)) / 50
	if perUE50 >= perUE10 {
		t.Errorf("per-UE bytes did not shrink: %v at 10 UEs, %v at 50", perUE10, perUE50)
	}
}

// randomRow draws one UE row with every field populated (variable-length
// subband and LC lists, including empty ones).
func randomRow(rnd *rand.Rand, i int) UEStats {
	s := UEStats{
		RNTI: lte.RNTI(rnd.Intn(1 << 16)), Cell: lte.CellID(rnd.Intn(3)),
		CQI:     lte.CQI(rnd.Intn(16)),
		DLQueue: rnd.Uint64() >> uint(rnd.Intn(64)), ULQueue: uint64(rnd.Intn(1 << 20)),
		DLRateKbps: rnd.Uint32(), ULRateKbps: uint32(rnd.Intn(200)),
		HARQRetx: uint32(rnd.Intn(4)), LastSchedSF: lte.Subframe(rnd.Intn(1 << 30)),
		PowerHeadroomDB: int32(rnd.Intn(80) - 40), RSRPdBm: -int32(rnd.Intn(140)),
		RSRQdB: int32(rnd.Uint32()), Group: rnd.Intn(4),
	}
	for j := rnd.Intn(3) * 7 % 14; j > 0; j-- { // 0, 7 or 13 subbands
		s.SubbandCQI = append(s.SubbandCQI, uint8(1+rnd.Intn(15)))
	}
	for j := (i + rnd.Intn(2)) % 4; j > 0; j-- {
		s.LCs = append(s.LCs, LCReport{LCID: uint8(j), Bytes: uint64(rnd.Intn(1 << 16)), HoLDelayMs: uint32(rnd.Intn(3))})
	}
	return s
}

// maskRow zeroes the report components flags does not select, the way a
// subscription's filler leaves their columns alone.
func maskRow(s UEStats, flags StatsFlags) UEStats {
	if flags&StatsQueues == 0 {
		s.DLQueue, s.ULQueue, s.LCs = 0, 0, nil
	}
	if flags&StatsCQI == 0 {
		s.CQI, s.SubbandCQI = 0, nil
	}
	if flags&StatsRates == 0 {
		s.DLRateKbps, s.ULRateKbps = 0, 0
	}
	if flags&StatsHARQ == 0 {
		s.HARQRetx = 0
	}
	return s
}

// tableRows reads a table back row by row.
func tableRows(t *UETable) []UEStats {
	rows := make([]UEStats, t.Len())
	for i := range rows {
		t.Row(i, &rows[i])
	}
	return rows
}

// TestPropertyStatsReplyRoundTrip round-trips seeded random tables of 0, 1,
// 32 and 200 UEs under every subset of the per-UE StatsFlags, through both
// payloads that carry a UE block and through both decode paths. The pooled
// decode reuses a table a full report has just been through, so a column
// the masked report omits must read back as zeros, not as what was there.
func TestPropertyStatsReplyRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 32, 200} {
		full := make([]UEStats, n)
		for i := range full {
			full[i] = randomRow(rnd, i)
		}
		dirty := Encode(New(1, 1, &StatsReply{ID: 1, UEs: UETableOf(full...)}))
		for flags := StatsFlags(0); flags < StatsCell; flags++ {
			want := make([]UEStats, n)
			for i := range want {
				want[i] = maskRow(full[i], flags)
			}
			sf := lte.Subframe(rnd.Uint32())
			for _, p := range []Payload{
				&StatsReply{ID: rnd.Uint32(), SF: sf, UEs: UETableOf(want...)},
				&StateSnapshot{Epoch: 3, SF: sf, UEs: UETableOf(want...)},
			} {
				b := Encode(New(1, sf, p))
				out, err := Decode(b)
				if err != nil {
					t.Fatalf("%v n=%d flags=%#x: %v", p.Kind(), n, flags, err)
				}
				if !reflect.DeepEqual(out.Payload, p) {
					t.Fatalf("%v n=%d flags=%#x: payload mismatch:\n got %+v\nwant %+v", p.Kind(), n, flags, out.Payload, p)
				}
				if m, err := DecodePooled(dirty); err != nil {
					t.Fatal(err)
				} else {
					m.Release()
				}
				pooled, err := DecodePooled(b)
				if err != nil {
					t.Fatal(err)
				}
				var got []UEStats
				switch pp := pooled.Payload.(type) {
				case *StatsReply:
					got = tableRows(&pp.UEs)
				case *StateSnapshot:
					got = tableRows(&pp.UEs)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v n=%d flags=%#x: pooled rows mismatch", p.Kind(), n, flags)
				}
				pooled.Release()
			}
		}
	}
}

func TestPropertyDecodeGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
