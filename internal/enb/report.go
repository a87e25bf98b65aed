package enb

import (
	"slices"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
)

// This file is the read-side of the data plane: the statistics snapshots
// the FlexRAN agent turns into protocol reports, and the per-UE/per-cell
// accessors the experiments sample.

// UEReport is a point-in-time snapshot of one UE's data-plane state.
type UEReport struct {
	RNTI        lte.RNTI
	IMSI        uint64
	Cell        lte.CellID
	State       UEState
	CQI         lte.CQI
	DLQueue     int
	ULQueue     int
	SigQueue    int // pending attach signaling (SRB) bytes
	DLDelivered uint64
	ULDelivered uint64
	DLDropped   uint64
	AvgDLKbps   float64
	AvgULKbps   float64
	HARQRetx    uint32
	LastSched   lte.Subframe
	Group       int
	AttachTries int
}

// UEReport returns the snapshot for one UE, with ok=false when unknown.
func (e *ENB) UEReport(rnti lte.RNTI) (UEReport, bool) {
	s, ok := e.lookup(rnti)
	if !ok {
		return UEReport{}, false
	}
	return e.report(s), true
}

// RSSIdBm returns the total received power at a UE's position at the
// current subframe, the term a measurement's RSRQ subtracts from its RSRP
// (ok=false for an unknown UE or one whose channel takes no measurements).
func (e *ENB) RSSIdBm(rnti lte.RNTI) (float64, bool) {
	s, ok := e.lookup(rnti)
	if !ok {
		return 0, false
	}
	nm, ok := e.cold[s].params.Channel.(radio.NeighborMeasurer)
	if !ok {
		return 0, false
	}
	return nm.RSSIdBm(e.sf), true
}

func (e *ENB) report(s int32) UEReport {
	h, c := &e.hot[s], &e.cold[s]
	return UEReport{
		RNTI:        h.rnti,
		IMSI:        c.params.IMSI,
		Cell:        c.params.Cell,
		State:       h.state,
		CQI:         h.cqi,
		DLQueue:     h.dlQueue,
		ULQueue:     h.ulQueue,
		SigQueue:    h.sigPending,
		DLDelivered: c.dlDelivered,
		ULDelivered: c.ulDelivered,
		DLDropped:   c.dlDropped,
		AvgDLKbps:   h.avgDL,
		AvgULKbps:   h.avgUL,
		HARQRetx:    c.harqRetx,
		LastSched:   h.lastSched,
		Group:       c.params.Group,
		AttachTries: int(c.attempts),
	}
}

// UEReports snapshots every UE into a fresh slice, ordered by RNTI.
func (e *ENB) UEReports() []UEReport {
	out := make([]UEReport, 0, len(e.order))
	for _, s := range e.order {
		out = append(out, e.report(s))
	}
	return out
}

// UEs returns the RNTIs of all current UEs, ordered.
func (e *ENB) UEs() []lte.RNTI {
	out := make([]lte.RNTI, len(e.order))
	for i, s := range e.order {
		out[i] = e.hot[s].rnti
	}
	return out
}

// Connected reports whether a UE has completed attachment.
func (e *ENB) Connected(rnti lte.RNTI) bool {
	s, ok := e.lookup(rnti)
	return ok && e.hot[s].state == StateConnected
}

// CellReport is a point-in-time snapshot of one cell.
type CellReport struct {
	Cell     lte.CellID
	UsedPRB  int
	TotalPRB int
}

// AppendCellReports appends a snapshot of every cell to dst, ordered by id.
func (e *ENB) AppendCellReports(dst []CellReport) []CellReport {
	for _, c := range e.cellList {
		dst = append(dst, CellReport{
			Cell:     c.cfg.Cell,
			UsedPRB:  c.usedPRB,
			TotalPRB: c.prbs,
		})
	}
	return dst
}

// CellReports snapshots every cell into a fresh slice, ordered by id.
func (e *ENB) CellReports() []CellReport {
	return e.AppendCellReports(make([]CellReport, 0, len(e.cellList)))
}

// Active reports whether the cell transmitted any PRB in subframe sf.
// Only the last activityWindow subframes are retained; older queries
// return false. This is the interference-coupling hook: another eNodeB's
// channel model can ask whether this cell was transmitting.
func (e *ENB) Active(cellID lte.CellID, sf lte.Subframe) bool {
	c := e.findCell(cellID)
	if c == nil {
		return false
	}
	slot := int(sf % activityWindow)
	return c.activitySF[slot] == sf && c.activity[slot] > 0
}

// SubbandsAt10MHz is the number of CQI subbands reported per UE over a
// 10 MHz carrier (36.213 Table 7.2.1-3).
const SubbandsAt10MHz = 13

// FillUETable writes the statistics report of every UE into t, one row per
// UE in RNTI order, straight from the hot and cold records and column by
// column: no per-UE snapshot is built on the way. flags selects the report
// components as a subscription does; the columns of an unselected component
// stay zero (and its subband/LC lists empty), identity, last-scheduled
// subframe, L3 measurements and group are always filled. t's capacity is
// reused, so a report builder refilling one table per subscription
// allocates nothing per TTI.
//
// The subband CQIs are a deterministic ripple around the wideband CQI (the
// PHY abstraction has no frequency-selective model); power headroom and
// RSRP/RSRQ derive from the CQI operating point.
func (e *ENB) FillUETable(t *protocol.UETable, flags protocol.StatsFlags) {
	t.Resize(len(e.order))
	for i, s := range e.order {
		h, c := &e.hot[s], &e.cold[s]
		cqi := int32(h.cqi)
		t.RNTI[i] = h.rnti
		t.Cell[i] = c.params.Cell
		t.LastSchedSF[i] = h.lastSched
		t.PowerHeadroomDB[i] = 40 - 2*cqi
		t.RSRPdBm[i] = -140 + 6*cqi
		t.RSRQdB[i] = -20 + cqi
		if c.params.Group > 0 {
			t.Group[i] = uint32(c.params.Group)
		}
	}
	// The flat columns are grown to their full size up front, so a table
	// gets the capacity it needs, not the slack of growth by appending.
	n := len(e.order)
	if flags&protocol.StatsQueues != 0 {
		t.LCID, t.LCBytes, t.LCHoLMs = slices.Grow(t.LCID, 3*n), slices.Grow(t.LCBytes, 3*n), slices.Grow(t.LCHoLMs, 3*n)
		for i, s := range e.order {
			h := &e.hot[s]
			dlq := uint64(h.dlQueue)
			t.DLQueue[i] = dlq
			t.ULQueue[i] = uint64(h.ulQueue)
			// SRB1, SRB2 and the default DRB.
			t.LCID = append(t.LCID, 1, 2, 3)
			t.LCBytes = append(t.LCBytes, uint64(h.sigPending), 0, dlq)
			t.LCHoLMs = append(t.LCHoLMs, 0, 0, holDelay(h.dlQueue, h.avgDL))
			t.LCEnd[i] = uint32(len(t.LCID))
		}
	}
	if flags&protocol.StatsCQI != 0 {
		t.Subbands = slices.Grow(t.Subbands, SubbandsAt10MHz*n)
		for i, s := range e.order {
			h := &e.hot[s]
			t.CQI[i] = h.cqi
			t.Subbands = append(t.Subbands, subbandCQIs(h.rnti, h.cqi)...)
			t.SubbandEnd[i] = uint32(len(t.Subbands))
		}
	}
	if flags&protocol.StatsRates != 0 {
		for i, s := range e.order {
			h := &e.hot[s]
			t.DLRateKbps[i] = uint32(h.avgDL)
			t.ULRateKbps[i] = uint32(h.avgUL)
		}
	}
	if flags&protocol.StatsHARQ != 0 {
		for i, s := range e.order {
			t.HARQRetx[i] = e.cold[s].harqRetx
		}
	}
}

// subbandCQIs returns the subband CQIs a UE reports at wideband CQI cqi:
// none at CQI 0, else a read-only row of subbandRipple.
func subbandCQIs(rnti lte.RNTI, cqi lte.CQI) []uint8 {
	if cqi == 0 {
		return nil
	}
	return subbandRipple[rnti%3][min(int(cqi), lte.MaxCQI+1)][:]
}

// subbandRipple[r][cqi] holds the subband CQIs of a UE whose RNTI is r
// modulo 3 at wideband CQI cqi: subband sb reads cqi + (rnti + 7·sb)%3 − 1,
// clamped to [1, MaxCQI]. That depends on the RNTI only through rnti%3, so
// three rows of residues cover every UE. Row MaxCQI+1 stands for every CQI
// above MaxCQI, all of whose subbands clamp to MaxCQI; row 0 is unused.
var subbandRipple = func() (t [3][lte.MaxCQI + 2][SubbandsAt10MHz]uint8) {
	for r := range t {
		for cqi := 1; cqi < len(t[r]); cqi++ {
			for sb := range t[r][cqi] {
				v := cqi + (r+sb*7)%3 - 1
				t[r][cqi][sb] = uint8(max(1, min(v, lte.MaxCQI)))
			}
		}
	}
	return t
}()

// holDelay estimates the head-of-line delay of the data bearer from the
// queue depth and the served rate.
func holDelay(dlQueue int, avgDLKbps float64) uint32 {
	if avgDLKbps < 1 {
		if dlQueue > 0 {
			return 1000
		}
		return 0
	}
	ms := float64(dlQueue) * 8 / avgDLKbps
	if ms > 10000 {
		ms = 10000
	}
	return uint32(ms)
}

// ToProtocolCellStats converts a cell snapshot into the protocol entry.
func (r CellReport) ToProtocolCellStats() protocol.CellStats {
	return protocol.CellStats{
		Cell:     r.Cell,
		UsedPRB:  uint32(r.UsedPRB),
		TotalPRB: uint32(r.TotalPRB),
	}
}
