package protocol

import (
	"reflect"
	"testing"

	"flexran/internal/lte"
)

// poolStatsReply builds a distinguishable n-UE reply.
func poolStatsReply(n int, base uint64) *StatsReply {
	rep := &StatsReply{ID: uint32(base), SF: lte.Subframe(base)}
	for i := 0; i < n; i++ {
		rep.UEs.Append(&UEStats{
			RNTI:       lte.RNTI(base) + lte.RNTI(i),
			CQI:        lte.CQI(1 + (int(base)+i)%15),
			DLQueue:    base * uint64(i+1),
			SubbandCQI: []uint8{uint8(base), uint8(i)},
			LCs:        []LCReport{{LCID: 1, Bytes: base}, {LCID: 3, Bytes: uint64(i)}},
		})
	}
	rep.Cells = []CellStats{{Cell: lte.CellID(base), UsedPRB: uint32(base)}}
	return rep
}

// TestDecodePooledMatchesDecode pins that the pooled decode path produces
// exactly what the plain path produces.
func TestDecodePooledMatchesDecode(t *testing.T) {
	msg := New(7, 42, poolStatsReply(5, 9))
	b := Encode(msg)
	plain, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := DecodePooled(b)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.ENB != plain.ENB || pooled.SF != plain.SF {
		t.Fatalf("envelope mismatch: %v/%v vs %v/%v", pooled.ENB, pooled.SF, plain.ENB, plain.SF)
	}
	if !reflect.DeepEqual(pooled.Payload, plain.Payload) {
		t.Fatalf("payload mismatch:\npooled: %+v\nplain:  %+v", pooled.Payload, plain.Payload)
	}
	pooled.Release()
}

// TestDecodePooledReuseNoStaleState pins the reset contract for every
// pooled kind of the kinds table: after the kind's fully populated corpus
// payload has been through DecodePooled and Release a few times, whatever
// payload the free list hands back for an empty message of that kind must
// read as the zero value — every scalar zero, every slice and UE-block
// column of length 0 (capacity is the point of pooling and is not state).
// A field added to a hand-kept reset's struct and forgotten in the reset
// fails here.
func TestDecodePooledReuseNoStaleState(t *testing.T) {
	full := map[Kind]Payload{}
	for _, p := range corpusPayloads() {
		full[p.Kind()] = p
	}
	for k := KindHello; k < kindMax; k++ {
		if kinds[k].pool == nil {
			continue
		}
		big := Encode(New(1, 1, full[k]))
		empty := Encode(New(2, 3, kinds[k].new()))
		for i := 0; i < 4; i++ {
			m, err := DecodePooled(big)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m.Payload, full[k]) {
				t.Fatalf("%v: pooled decode = %+v, want %+v", k, m.Payload, full[k])
			}
			m.Release()
		}
		m, err := DecodePooled(empty)
		if err != nil {
			t.Fatal(err)
		}
		if !zeroOrEmpty(reflect.ValueOf(m.Payload).Elem()) {
			t.Errorf("%v: stale state leaked into a reused payload: %+v", k, m.Payload)
		}
		m.Release()
	}

	// And one level down, the way the RIB reads a report: a reply reused
	// for a smaller one hands out exactly the smaller one's row.
	bigB := Encode(New(1, 1, poolStatsReply(32, 1000)))
	smallB := Encode(New(2, 3, &StatsReply{ID: 2, SF: 3, UEs: UETableOf(UEStats{RNTI: 9, CQI: 4})}))
	for i := 0; i < 4; i++ {
		m, err := DecodePooled(bigB)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	m, err := DecodePooled(smallB)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	got := m.Payload.(*StatsReply)
	if got.ID != 2 || got.SF != 3 || len(got.Cells) != 0 || got.UEs.Len() != 1 {
		t.Fatalf("stale state leaked into reused reply: %+v", got)
	}
	var u UEStats
	got.UEs.Row(0, &u)
	if u.RNTI != 9 || u.CQI != 4 || u.DLQueue != 0 ||
		len(u.SubbandCQI) != 0 || len(u.LCs) != 0 {
		t.Fatalf("stale state leaked into reused UE entry: %+v", u)
	}
}

// zeroOrEmpty reports whether v is its zero value, taking a slice of
// length 0 for zero whatever its capacity.
func zeroOrEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice:
		return v.Len() == 0
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !zeroOrEmpty(v.Field(i)) {
				return false
			}
		}
		return true
	}
	return v.IsZero()
}

// TestAcquirePooledIsEmpty pins what a sender filling a message in place
// starts from: for every kind, AcquirePooled returns the envelope it was
// asked for around an empty payload of that kind, even when the kind's free
// list holds one a full message of the kind was cloned into and released.
func TestAcquirePooledIsEmpty(t *testing.T) {
	for _, p := range corpusPayloads() {
		k := p.Kind()
		for i := 0; i < 4; i++ {
			ClonePooled(New(1, 1, p)).Release()
		}
		m := AcquirePooled(7, 9, k)
		if m.ENB != 7 || m.SF != 9 || m.CmdSeq != 0 || m.Payload.Kind() != k {
			t.Errorf("%v: AcquirePooled envelope = %+v", k, m)
		}
		if !zeroOrEmpty(reflect.ValueOf(m.Payload).Elem()) {
			t.Errorf("%v: AcquirePooled payload holds stale state: %+v", k, m.Payload)
		}
		m.Release()
	}
}

// TestAcquireMessageOwnership pins AcquireMessage's contract: the envelope
// is pooled but the payload stays owned by the caller — Release must never
// hand it to the free lists, where a later DecodePooled would scribble
// over it.
func TestAcquireMessageOwnership(t *testing.T) {
	mine := poolStatsReply(3, 77)
	m := AcquireMessage(5, 11, mine)
	if m.ENB != 5 || m.SF != 11 || m.Payload != Payload(mine) {
		t.Fatalf("AcquireMessage envelope = %+v", m)
	}
	want := poolStatsReply(3, 77)
	m.Release()

	// Churn the StatsReply free list; none of these decodes may receive
	// (and therefore mutate) the payload we still own.
	b := Encode(New(1, 1, poolStatsReply(8, 500)))
	for i := 0; i < 8; i++ {
		dm, err := DecodePooled(b)
		if err != nil {
			t.Fatal(err)
		}
		if dm.Payload == Payload(mine) {
			t.Fatal("caller-owned payload leaked into the free list")
		}
		dm.Release()
	}
	if !reflect.DeepEqual(mine, want) {
		t.Fatalf("caller-owned payload mutated after Release:\ngot  %+v\nwant %+v", mine, want)
	}
}

// TestReleaseNoOpForHandBuiltMessages pins that Release leaves messages
// built by New (or literals) alone, so retaining them stays safe.
func TestReleaseNoOpForHandBuiltMessages(t *testing.T) {
	p := &SubframeTrigger{SF: 123}
	m := New(1, 2, p)
	m.Release()
	if m.ENB != 1 || m.SF != 2 || m.Payload != Payload(p) || p.SF != 123 {
		t.Fatalf("Release mutated a hand-built message: %+v (payload %+v)", m, p)
	}
}

// TestAppendMessageMatchesEncode pins the pooled append-encoder against
// the allocating path, including reuse of a dirty destination buffer.
func TestAppendMessageMatchesEncode(t *testing.T) {
	msg := New(3, 9, poolStatsReply(4, 21))
	want := Encode(msg)
	buf := make([]byte, 0, 8)
	for i := 0; i < 3; i++ {
		buf = AppendMessage(buf[:0], msg)
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("AppendMessage round %d diverged from Encode", i)
		}
	}
}
