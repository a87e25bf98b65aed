package controller

import (
	"slices"
	"testing"
	"unsafe"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// TestMemGateUERecordSize pins the RIB's UE leaf on 64-bit hosts: 48 B, the
// identity, the measurement report and its stamp, the row index and a
// pointer to the statistics of a record without a row. A record with a row
// reads the shard's table, so it carries no inline protocol.UEStats (the
// record was 160 B while it did, and the 120-B copy was zero whenever the
// UE had a row).
func TestMemGateUERecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(UERecord{}); got > 48 {
		t.Errorf("UERecord is %d B, want at most 48", got)
	}
}

// TestRIBOnlyRowlessRecordsHoldStats pins what keeps the records small:
// statistics of its own are held only by a record without a row, and only
// as long as it has none. A record a report leaves out keeps its last row
// (and a resync's record its snapshot row), and a record that gets a row
// drops its copy.
func TestRIBOnlyRowlessRecordsHoldStats(t *testing.T) {
	r := helloRIB()
	report := func(rntis ...lte.RNTI) {
		rep := &protocol.StatsReply{ID: 1}
		for _, rnti := range rntis {
			rep.UEs.Append(&protocol.UEStats{RNTI: rnti, CQI: lte.CQI(rnti % 16)})
		}
		r.applyStats(1, rep)
	}
	check := func(step string, withStats ...lte.RNTI) {
		t.Helper()
		for rnti, u := range r.shard(1).cells[0].UEs {
			if want := slices.Contains(withStats, rnti); (u.stats != nil) != want || u.row > 0 && u.stats != nil {
				t.Errorf("%s: RNTI %d has row %d and stats %v, want stats %v", step, rnti, u.row, u.stats != nil, want)
			}
		}
	}
	report(70, 71, 72)
	check("first report")
	report(70, 71, 72, 73)
	check("a UE joins")
	report(70, 72, 73)
	check("a UE left out", 71)
	if s, ok := r.UEStats(1, 71); !ok || s.CQI != 71%16 {
		t.Errorf("the left-out UE reads %+v, want its last row", s)
	}
	report(70, 71, 72, 73)
	check("the UE is back")
	snap := &protocol.StateSnapshot{Epoch: 1}
	snap.UEs.Append(&protocol.UEStats{RNTI: 70, CQI: 9})
	r.applyResync(1, snap)
	check("resync", 70)
	report(70)
	check("report after resync")
}

// TestAllocGateApplyShares bounds the master's end of a share push: a
// three-share plan rendered and sent toward a bound session. The document
// is appended as text into the master's buffer, so what allocates is its
// string and the PolicyReconf that carries it.
func TestAllocGateApplyShares(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race (sync.Pool caching is randomized)")
	}
	m := NewMaster(DefaultOptions())
	m.HandleAgentSession(func(msg *protocol.Message) error { msg.Release(); return nil }).Deliver(
		protocol.New(1, 0, &protocol.Hello{Version: protocol.ProtocolVersion}))
	m.Tick()
	plan := SharePlan{Shares: []float64{0.25, 0.25, 0.5}}
	got := -1.0
	var err error
	m.Do(func(c *Context) {
		got = testing.AllocsPerRun(200, func() { _, err = c.ApplyShares(1, plan) })
	})
	m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || got > 2 {
		t.Errorf("ApplyShares of a three-share plan: %.1f allocs/op, budget 2", got)
	}
	t.Logf("ApplyShares of a three-share plan: %.1f allocs/op", got)
}
