package controller

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// TestAllocGateDecodeApplyStats gates the receive half of the southbound
// fast path: decoding one 32-UE full report through the free lists and the
// RIB Updater absorbing it into a warmed shard must not allocate.
func TestAllocGateDecodeApplyStats(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race (sync.Pool caching is randomized)")
	}
	r := helloRIB()
	rep := &protocol.StatsReply{ID: 1, Cells: []protocol.CellStats{{Cell: 0, UsedPRB: 40, TotalPRB: 50}}}
	for i := 0; i < 32; i++ {
		rep.UEs.Append(&protocol.UEStats{
			RNTI: lte.RNTI(0x46 + i), CQI: 12, DLQueue: 15000, DLRateKbps: 9000,
			SubbandCQI: slices.Repeat([]uint8{12}, 13), RSRPdBm: -68,
			LCs: []protocol.LCReport{{LCID: 1}, {LCID: 2}, {LCID: 3, Bytes: 15000, HoLDelayMs: 13}},
		})
	}
	msg := protocol.New(1, 0, rep)
	var buf []byte
	op := func() {
		rep.SF++
		buf = protocol.AppendMessage(buf[:0], msg)
		m, err := protocol.DecodePooled(buf)
		if err != nil {
			t.Fatal(err)
		}
		r.applyStats(m.ENB, m.Payload.(*protocol.StatsReply))
		m.Release()
	}
	for i := 0; i < 100; i++ {
		op() // create the records, warm the pools and every row's scratch
	}
	if got := testing.AllocsPerRun(1000, op); got != 0 {
		t.Errorf("decode + applyStats of a 32-UE report: %.1f allocs/op, want 0", got)
	}
	if got, _ := r.UEStats(1, 0x46+31); r.UECount(1) != 32 || got.DLQueue != 15000 || len(got.LCs) != 3 {
		t.Errorf("RIB holds %d UEs, last %+v", r.UECount(1), got)
	}
}

// refRIB is the reference updater of TestRIBMatchesReferenceUpdater: one
// agent's UE records, every row resolved through the maps on every message
// and copied field by field, with none of the RIB's shortcuts.
type refRIB struct {
	cells map[lte.CellID]map[lte.RNTI]*UERecord
}

func (r *refRIB) get(cell lte.CellID, rnti lte.RNTI, imsi uint64) *UERecord {
	c := r.cells[cell]
	if c == nil {
		return nil
	}
	u := c[rnti]
	if u == nil {
		u = &UERecord{Config: protocol.UEConfig{RNTI: rnti, Cell: cell, IMSI: imsi}}
		c[rnti] = u
	}
	if u.Config.IMSI == 0 {
		u.Config.IMSI = imsi
	}
	return u
}

func (r *refRIB) stats(rows []protocol.UEStats) {
	for i := range rows {
		if u := r.get(rows[i].Cell, rows[i].RNTI, 0); u != nil {
			u.Stats = protocol.UEStats{}
			u.Stats.CopyFrom(&rows[i])
		}
	}
}

func (r *refRIB) wipe() {
	for _, c := range r.cells {
		clear(c)
	}
}

func (r *refRIB) ues() []protocol.UEStats {
	var out []protocol.UEStats
	for _, c := range r.cells {
		for _, u := range c {
			var s protocol.UEStats
			s.CopyFrom(&u.Stats)
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b protocol.UEStats) int { return int(a.RNTI) - int(b.RNTI) })
	return out
}

// mapWalkUEsOf is AppendUEsOf as it was before it read the rows in table
// order: every record of the shard's maps, then a sort by RNTI.
func mapWalkUEsOf(r *RIB, enb lte.ENBID) []protocol.UEStats {
	sh := r.shard(enb)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []protocol.UEStats
	for _, c := range sh.cells {
		for _, u := range c.UEs {
			var s protocol.UEStats
			sh.statsOf(u, &s)
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b protocol.UEStats) int { return int(a.RNTI) - int(b.RNTI) })
	return out
}

// TestRIBMatchesReferenceUpdater drives the RIB and the reference updater
// with the same seeded random interleaving of everything that touches an
// agent's UE records — statistics reports whose rows appear (some twice, some
// in a cell the agent never announced), vanish, reorder and carry only some
// components, attach/detach events, handover completions, measurement
// reports and resyncs — and requires UEsOf, UECount and UEConfigOf to agree
// after every step. It is what licenses applyStats to remember which record
// each row resolved to. AppendUEsOf, which reads the rows in table order
// before the records left without one, must also equal the map walk it
// replaced, behind an entry already in dst.
func TestRIBMatchesReferenceUpdater(t *testing.T) {
	const enb, universe = 1, 12 // RNTIs 100..111; RNTI r lives in cell r%2
	cellOf := func(r lte.RNTI) lte.CellID { return lte.CellID(r % 2) }
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		rib := NewRIB()
		rib.applyHello(enb, protocol.ENBConfig{ID: enb, Cells: []protocol.CellConfig{{Cell: 0}, {Cell: 1}}})
		ref := &refRIB{cells: map[lte.CellID]map[lte.RNTI]*UERecord{0: {}, 1: {}}}
		pick := func() lte.RNTI { return lte.RNTI(100 + rnd.Intn(universe)) }
		// reported is the agent's current UE list, in report order.
		var reported []lte.RNTI
		row := func(r lte.RNTI, flags protocol.StatsFlags) protocol.UEStats {
			s := protocol.UEStats{RNTI: r, Cell: cellOf(r), LastSchedSF: lte.Subframe(rnd.Intn(1000)),
				RSRPdBm: -int32(rnd.Intn(140)), Group: rnd.Intn(3)}
			if rnd.Intn(20) == 0 {
				s.Cell = 9 // a cell the agent never announced: the row is skipped
			}
			if flags&protocol.StatsQueues != 0 {
				s.DLQueue = uint64(rnd.Intn(1 << 20))
				for j := rnd.Intn(4); j > 0; j-- {
					s.LCs = append(s.LCs, protocol.LCReport{LCID: uint8(j), Bytes: uint64(rnd.Intn(999))})
				}
			}
			if flags&protocol.StatsCQI != 0 {
				s.CQI = lte.CQI(rnd.Intn(16))
				s.SubbandCQI = slices.Repeat([]uint8{uint8(s.CQI)}, rnd.Intn(2)*13)
			}
			if flags&protocol.StatsRates != 0 {
				s.DLRateKbps = rnd.Uint32()
			}
			return s
		}
		for step := 0; step < 400; step++ {
			sf := lte.Subframe(step + 1)
			switch op := rnd.Intn(20); {
			case op < 11: // a report; most repeat the previous row set exactly
				switch rnd.Intn(8) {
				case 0:
					reported = append(reported, pick()) // a row appears (maybe twice)
				case 1:
					if n := len(reported); n > 0 {
						reported = slices.Delete(reported, n-1, n) // one vanishes
					}
				case 2:
					rnd.Shuffle(len(reported), func(i, j int) { reported[i], reported[j] = reported[j], reported[i] })
				}
				flags := protocol.StatsFlags(rnd.Intn(16))
				rows := make([]protocol.UEStats, len(reported))
				for i, r := range reported {
					rows[i] = row(r, flags)
				}
				rib.applyStats(enb, &protocol.StatsReply{ID: 1, SF: sf, UEs: protocol.UETableOf(rows...)})
				ref.stats(rows)
			case op < 13:
				r := pick()
				typ := []protocol.UEEventType{protocol.UEEventAttach, protocol.UEEventRandomAccess}[rnd.Intn(2)]
				rib.applyUEEvent(enb, &protocol.UEEvent{Type: typ, RNTI: r, Cell: cellOf(r)})
				ref.get(cellOf(r), r, 0)
			case op < 16:
				r := pick()
				rib.applyUEEvent(enb, &protocol.UEEvent{Type: protocol.UEEventDetach, RNTI: r, Cell: cellOf(r)})
				delete(ref.cells[cellOf(r)], r)
			case op < 17:
				r := pick()
				hc := &protocol.HandoverComplete{RNTI: r, IMSI: 5000 + uint64(r), Cell: cellOf(r), SourceENB: 2}
				rib.applyHandoverComplete(enb, hc)
				ref.get(hc.Cell, r, hc.IMSI)
			case op < 19:
				r := pick()
				mr := &protocol.MeasReport{RNTI: r, IMSI: 7000 + uint64(r), Cell: cellOf(r), ServingRSRPdBm: -100}
				rib.applyMeasReport(enb, sf, mr)
				ref.get(mr.Cell, r, mr.IMSI)
			default: // resync: the snapshot replaces the whole forest
				reported = reported[:0]
				for i := rnd.Intn(universe); i > 0; i-- {
					reported = append(reported, pick())
				}
				snap := &protocol.StateSnapshot{Epoch: 1, SF: sf}
				ref.wipe()
				for _, r := range reported {
					s := row(r, protocol.StatsAll)
					snap.UEs.Append(&s)
					snap.Configs = append(snap.Configs, protocol.UEConfig{RNTI: r, Cell: s.Cell, IMSI: 9000 + uint64(r)})
					ref.stats([]protocol.UEStats{s})
					if u := ref.cells[s.Cell][r]; u != nil {
						u.Config.IMSI = 9000 + uint64(r)
					}
				}
				rib.applyResync(enb, snap)
			}

			want := ref.ues()
			if got := rib.UEsOf(enb); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("seed %d step %d: UEsOf\n got %+v\nwant %+v", seed, step, got, want)
			}
			walk := mapWalkUEsOf(rib, enb)
			if got := rib.AppendUEsOf(enb, []protocol.UEStats{{RNTI: 1}}); got[0].RNTI != 1 || !reflect.DeepEqual(got[1:], walk) && len(got)+len(walk) > 1 {
				t.Fatalf("seed %d step %d: AppendUEsOf\n got %+v\nwant %+v", seed, step, got[1:], walk)
			}
			if got := rib.UECount(enb); got != len(want) {
				t.Fatalf("seed %d step %d: UECount = %d, want %d", seed, step, got, len(want))
			}
			for r := lte.RNTI(100); r < 100+universe; r++ {
				var wantCfg protocol.UEConfig
				u, wantOK := ref.cells[cellOf(r)][r]
				if wantOK {
					wantCfg = u.Config
				}
				if cfg, ok := rib.UEConfigOf(enb, r); ok != wantOK || cfg != wantCfg {
					t.Fatalf("seed %d step %d: UEConfigOf(%d) = %+v %v, want %+v %v", seed, step, r, cfg, ok, wantCfg, wantOK)
				}
			}
		}
	}
}
