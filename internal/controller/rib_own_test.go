package controller

import (
	"reflect"
	"slices"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// ownedReport builds a report of ues UEs whose every value derives from
// base, so two reports with different bases differ in every column.
func ownedReport(sf lte.Subframe, base, ues int) *protocol.StatsReply {
	rep := &protocol.StatsReply{ID: 1, SF: sf}
	for i := 0; i < ues; i++ {
		v := base + i
		rep.UEs.Append(&protocol.UEStats{
			RNTI: lte.RNTI(0x46 + i), CQI: lte.CQI(1 + v%15), DLQueue: uint64(100 * v), ULQueue: uint64(v),
			DLRateKbps: uint32(9 * v), HARQRetx: uint32(v % 7), LastSchedSF: sf - 1,
			SubbandCQI: slices.Repeat([]uint8{uint8(1 + v%15)}, 1+v%13), RSRPdBm: -int32(v % 140), Group: v % 3,
			LCs: []protocol.LCReport{{LCID: 1, Bytes: uint64(v)}, {LCID: 3, Bytes: uint64(2 * v), HoLDelayMs: uint32(v % 50)}},
		})
	}
	return rep
}

// rowsOf returns a report's rows as a RIB reader would hand them out.
func rowsOf(rep *protocol.StatsReply) []protocol.UEStats {
	out := make([]protocol.UEStats, rep.UEs.Len())
	for i := range out {
		rep.UEs.Row(i, &out[i])
	}
	return out
}

// TestRIBReadersOwnTheirRows pins that nothing a reader got from the RIB
// changes afterwards, and that the RIB keeps nothing of a report it
// applied: snapshots taken from UEsOf and UEStats stay as they were across
// the next applyStats, across the decoded message's release and the pool
// decoding another report into the same payload, and across a report that
// leaves a UE out (which keeps its last statistics).
func TestRIBReadersOwnTheirRows(t *testing.T) {
	r := helloRIB()
	var buf []byte
	decode := func(rep *protocol.StatsReply) *protocol.Message {
		buf = protocol.AppendMessage(buf[:0], protocol.New(1, rep.SF, rep))
		m, err := protocol.DecodePooled(buf)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	apply := func(m *protocol.Message) { r.applyStats(m.ENB, m.Payload.(*protocol.StatsReply)) }
	check := func(what string, got, want []protocol.UEStats) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
		}
	}

	first := ownedReport(10, 0, 32)
	m1 := decode(first)
	apply(m1)
	snap := r.UEsOf(1)
	one, _ := r.UEStats(1, 0x46+5)
	check("UEsOf after the first report", snap, rowsOf(first))
	m1.Release()

	second := ownedReport(11, 1000, 32)
	m2 := decode(second) // the pool usually hands back the payload m1 released
	check("RIB after the decoder reused the released payload", r.UEsOf(1), rowsOf(first))
	apply(m2)
	check("the first snapshot after the next applyStats", snap, rowsOf(first))
	check("UEStats after the next applyStats", []protocol.UEStats{one}, rowsOf(first)[5:6])
	check("UEsOf after the second report", r.UEsOf(1), rowsOf(second))
	m2.Release()

	// A report without the last UE: the record keeps the second report's
	// row, every other record reads the third's.
	third := ownedReport(12, 2000, 31)
	m3 := decode(third)
	apply(m3)
	m3.Release()
	want := append(rowsOf(third), rowsOf(second)[31])
	check("UEsOf after a report that left a UE out", r.UEsOf(1), want)
	m4 := decode(ownedReport(13, 3000, 32))
	m4.Release() // decoded, never applied
	check("UEsOf after an unapplied decode", r.UEsOf(1), want)
	check("the first snapshot at the end", snap, rowsOf(first))
}

// TestRIBDoesNotKeepNewBuiltReport applies one New-built report twice, as a
// sender that delivers the same message again does: the report must come
// out unchanged, and so must the RIB's view of it. A RIB that took over the
// report's table instead of copying it would leave the message with another
// table, or with none.
func TestRIBDoesNotKeepNewBuiltReport(t *testing.T) {
	r := helloRIB()
	rep := ownedReport(10, 7, 32)
	var sent protocol.UETable
	sent.CopyFrom(&rep.UEs)
	want := rowsOf(rep)
	msg := protocol.New(1, rep.SF, rep)
	for i := 0; i < 2; i++ {
		r.applyStats(msg.ENB, msg.Payload.(*protocol.StatsReply))
		msg.Release() // a no-op for a message built by New
		if !reflect.DeepEqual(rep.UEs, sent) {
			t.Fatalf("delivery %d: the report's table changed:\n got %+v\nwant %+v", i+1, rep.UEs, sent)
		}
		if got := r.UEsOf(1); !reflect.DeepEqual(got, want) {
			t.Fatalf("delivery %d: UEsOf\n got %+v\nwant %+v", i+1, got, want)
		}
	}
	other := ownedReport(11, 500, 32)
	r.applyStats(1, other)
	if !reflect.DeepEqual(rep.UEs, sent) {
		t.Fatal("the first report's table changed when another report was applied")
	}
}
