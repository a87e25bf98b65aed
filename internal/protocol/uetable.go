package protocol

import (
	"errors"
	"fmt"

	"flexran/internal/lte"
	"flexran/internal/wire"
)

// UETable is the per-UE part of a statistics report held column by column:
// one typed slice per UEStats field, row i of every column describing the
// same UE. It is the in-memory form of StatsReply.UEs and StateSnapshot.UEs
// and maps one to one onto their wire form (see MarshalWire), so a report
// travels from the eNodeB's per-UE records to the master's RIB filled
// column by column, without being transposed into rows and back on the way. UEStats remains
// the row type: Row reads one, Append adds one.
//
// Every per-row column has length Len(). The variable-length parts of a row
// live in flat columns shared by all rows: row i's subband CQIs are
// Subbands[SubbandEnd[i-1]:SubbandEnd[i]] (from 0 for row 0), and its
// logical channels the same span of LCID/LCBytes/LCHoLMs under LCEnd.
type UETable struct {
	RNTI            []lte.RNTI
	Cell            []lte.CellID
	CQI             []lte.CQI
	DLQueue         []uint64
	ULQueue         []uint64
	DLRateKbps      []uint32
	ULRateKbps      []uint32
	HARQRetx        []uint32
	LastSchedSF     []lte.Subframe
	PowerHeadroomDB []int32
	RSRPdBm         []int32
	RSRQdB          []int32
	Group           []uint32

	SubbandEnd []uint32
	Subbands   []uint8

	LCEnd   []uint32
	LCID    []uint8
	LCBytes []uint64
	LCHoLMs []uint32
}

// UETableOf builds a table from rows.
func UETableOf(rows ...UEStats) UETable {
	var t UETable
	for i := range rows {
		t.Append(&rows[i])
	}
	return t
}

// Len returns the number of rows.
func (t *UETable) Len() int { return len(t.RNTI) }

// Resize sets the table to n all-zero rows with no subbands and no logical
// channels, keeping every column's capacity. A filler then assigns the
// columns it reports and appends to the flat ones; whatever it leaves alone
// reads as zero.
func (t *UETable) Resize(n int) {
	t.RNTI = resize(t.RNTI, n)
	t.Cell = resize(t.Cell, n)
	t.CQI = resize(t.CQI, n)
	t.DLQueue = resize(t.DLQueue, n)
	t.ULQueue = resize(t.ULQueue, n)
	t.DLRateKbps = resize(t.DLRateKbps, n)
	t.ULRateKbps = resize(t.ULRateKbps, n)
	t.HARQRetx = resize(t.HARQRetx, n)
	t.LastSchedSF = resize(t.LastSchedSF, n)
	t.PowerHeadroomDB = resize(t.PowerHeadroomDB, n)
	t.RSRPdBm = resize(t.RSRPdBm, n)
	t.RSRQdB = resize(t.RSRQdB, n)
	t.Group = resize(t.Group, n)
	t.SubbandEnd = resize(t.SubbandEnd, n)
	t.Subbands = t.Subbands[:0]
	t.LCEnd = resize(t.LCEnd, n)
	t.resizeLCs(0)
}

func (t *UETable) resizeLCs(n int) {
	t.LCID = resize(t.LCID, n)
	t.LCBytes = resize(t.LCBytes, n)
	t.LCHoLMs = resize(t.LCHoLMs, n)
}

// resize returns s with length n and every element zero, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// span returns the flat-column range of row i under an end-offset column.
func span(end []uint32, i int) (from, to uint32) {
	if i > 0 {
		from = end[i-1]
	}
	return from, end[i]
}

// Row copies row i into s, reusing s's SubbandCQI/LCs capacity: s owns its
// bytes afterwards, so it outlives the table (which may be pooled).
func (t *UETable) Row(i int, s *UEStats) {
	s.RNTI = t.RNTI[i]
	s.Cell = t.Cell[i]
	s.CQI = t.CQI[i]
	s.DLQueue = t.DLQueue[i]
	s.ULQueue = t.ULQueue[i]
	s.DLRateKbps = t.DLRateKbps[i]
	s.ULRateKbps = t.ULRateKbps[i]
	s.HARQRetx = t.HARQRetx[i]
	s.LastSchedSF = t.LastSchedSF[i]
	s.PowerHeadroomDB = t.PowerHeadroomDB[i]
	s.RSRPdBm = t.RSRPdBm[i]
	s.RSRQdB = t.RSRQdB[i]
	s.Group = int(t.Group[i])
	from, to := span(t.SubbandEnd, i)
	s.SubbandCQI = append(s.SubbandCQI[:0], t.Subbands[from:to]...)
	from, to = span(t.LCEnd, i)
	s.LCs = s.LCs[:0]
	for j := from; j < to; j++ {
		s.LCs = append(s.LCs, LCReport{LCID: t.LCID[j], Bytes: t.LCBytes[j], HoLDelayMs: t.LCHoLMs[j]})
	}
}

// CopyFrom makes t a copy of src, one bulk copy per column into t's own
// capacity: t shares no memory with src afterwards, so it outlives a pooled
// src, and a t whose columns have grown to src's size allocates nothing.
func (t *UETable) CopyFrom(src *UETable) {
	t.RNTI = append(t.RNTI[:0], src.RNTI...)
	t.Cell = append(t.Cell[:0], src.Cell...)
	t.CQI = append(t.CQI[:0], src.CQI...)
	t.DLQueue = append(t.DLQueue[:0], src.DLQueue...)
	t.ULQueue = append(t.ULQueue[:0], src.ULQueue...)
	t.DLRateKbps = append(t.DLRateKbps[:0], src.DLRateKbps...)
	t.ULRateKbps = append(t.ULRateKbps[:0], src.ULRateKbps...)
	t.HARQRetx = append(t.HARQRetx[:0], src.HARQRetx...)
	t.LastSchedSF = append(t.LastSchedSF[:0], src.LastSchedSF...)
	t.PowerHeadroomDB = append(t.PowerHeadroomDB[:0], src.PowerHeadroomDB...)
	t.RSRPdBm = append(t.RSRPdBm[:0], src.RSRPdBm...)
	t.RSRQdB = append(t.RSRQdB[:0], src.RSRQdB...)
	t.Group = append(t.Group[:0], src.Group...)
	t.SubbandEnd = append(t.SubbandEnd[:0], src.SubbandEnd...)
	t.Subbands = append(t.Subbands[:0], src.Subbands...)
	t.LCEnd = append(t.LCEnd[:0], src.LCEnd...)
	t.LCID = append(t.LCID[:0], src.LCID...)
	t.LCBytes = append(t.LCBytes[:0], src.LCBytes...)
	t.LCHoLMs = append(t.LCHoLMs[:0], src.LCHoLMs...)
}

// Append adds s as the last row. A negative Group reads as the default
// group, 0.
func (t *UETable) Append(s *UEStats) {
	t.RNTI = append(t.RNTI, s.RNTI)
	t.Cell = append(t.Cell, s.Cell)
	t.CQI = append(t.CQI, s.CQI)
	t.DLQueue = append(t.DLQueue, s.DLQueue)
	t.ULQueue = append(t.ULQueue, s.ULQueue)
	t.DLRateKbps = append(t.DLRateKbps, s.DLRateKbps)
	t.ULRateKbps = append(t.ULRateKbps, s.ULRateKbps)
	t.HARQRetx = append(t.HARQRetx, s.HARQRetx)
	t.LastSchedSF = append(t.LastSchedSF, s.LastSchedSF)
	t.PowerHeadroomDB = append(t.PowerHeadroomDB, s.PowerHeadroomDB)
	t.RSRPdBm = append(t.RSRPdBm, s.RSRPdBm)
	t.RSRQdB = append(t.RSRQdB, s.RSRQdB)
	t.Group = append(t.Group, uint32(max(s.Group, 0)))
	t.Subbands = append(t.Subbands, s.SubbandCQI...)
	t.SubbandEnd = append(t.SubbandEnd, uint32(len(t.Subbands)))
	for i := range s.LCs {
		t.LCID = append(t.LCID, s.LCs[i].LCID)
		t.LCBytes = append(t.LCBytes, s.LCs[i].Bytes)
		t.LCHoLMs = append(t.LCHoLMs, s.LCs[i].HoLDelayMs)
	}
	t.LCEnd = append(t.LCEnd, uint32(len(t.LCID)))
}

// Wire fields of the UE block. The block is an ordinary length-delimited
// message: a row count, then one packed repeated field per column (varints;
// zigzag for the signed three; the subband CQIs as raw bytes). The end-offset
// columns travel as per-row counts. A column whose values are all zero is
// omitted and reads back as zeros — except RNTI, and Subbands/LCID when any
// row has some, which are always sent so that the count they must match is
// bounded by bytes really present.
const (
	colCount = iota + 1
	colRNTI
	colCell
	colCQI
	colDLQueue
	colULQueue
	colDLRate
	colULRate
	colHARQ
	colLastSched
	colSubbandN
	colSubbands
	colLCN
	colLCID
	colLCBytes
	colLCHoL
	colPHR
	colRSRP
	colRSRQ
	colGroup
	colMax // sentinel: first unknown field
)

// Errors of the UE block decoder (value-level ones come from wire).
var (
	errBlockCount  = errors.New("row count exceeds the bytes that follow")
	errBlockOrder  = errors.New("column before its count")
	errBlockRepeat = errors.New("field repeated")
	errBlockTotal  = errors.New("flat column does not match its per-row counts")
)

// MarshalWire implements wire.Marshaler.
func (t *UETable) MarshalWire(e *wire.Encoder) {
	e.Uint(colCount, uint64(t.Len()))
	wire.PackUints(e, colRNTI, t.RNTI)
	wire.PackNonZeroUints(e, colCell, t.Cell)
	wire.PackNonZeroUints(e, colCQI, t.CQI)
	wire.PackNonZeroUints(e, colDLQueue, t.DLQueue)
	wire.PackNonZeroUints(e, colULQueue, t.ULQueue)
	wire.PackNonZeroUints(e, colDLRate, t.DLRateKbps)
	wire.PackNonZeroUints(e, colULRate, t.ULRateKbps)
	wire.PackNonZeroUints(e, colHARQ, t.HARQRetx)
	wire.PackNonZeroUints(e, colLastSched, t.LastSchedSF)
	if len(t.Subbands) > 0 {
		wire.PackCounts(e, colSubbandN, t.SubbandEnd)
		e.BytesField(colSubbands, t.Subbands)
	}
	if len(t.LCID) > 0 {
		wire.PackCounts(e, colLCN, t.LCEnd)
		wire.PackUints(e, colLCID, t.LCID)
		wire.PackNonZeroUints(e, colLCBytes, t.LCBytes)
		wire.PackNonZeroUints(e, colLCHoL, t.LCHoLMs)
	}
	wire.PackNonZeroSints(e, colPHR, t.PowerHeadroomDB)
	wire.PackNonZeroSints(e, colRSRP, t.RSRPdBm)
	wire.PackNonZeroSints(e, colRSRQ, t.RSRQdB)
	wire.PackNonZeroUints(e, colGroup, t.Group)
}

// UnmarshalWire implements wire.Unmarshaler. Nothing is sized from a number
// in the input before that number has been bounded by the bytes that are
// still to come, every column must hold exactly as many in-range values as
// the count (or the per-row counts) announced, and a known field may appear
// once; unknown fields are skipped.
func (t *UETable) UnmarshalWire(d *wire.Decoder) error {
	var seen uint32
	for {
		ok, err := d.Next()
		if err != nil {
			return err
		}
		if !ok {
			if seen == 0 {
				t.Resize(0) // a block with no count has no rows
			}
			return nil
		}
		f := d.Field()
		if f >= colMax {
			if err := d.Skip(); err != nil {
				return err
			}
			continue
		}
		had := seen
		seen |= 1 << f
		switch {
		case had&(1<<f) != 0:
			err = errBlockRepeat
		case f == colCount:
			var n uint64
			if n, err = d.ReadUint(); err == nil && n > uint64(d.Remaining()) {
				err = errBlockCount
			}
			if err == nil {
				t.Resize(int(n))
			}
		case had&(1<<colCount) == 0:
			err = errBlockOrder
		default:
			err = t.unmarshalColumn(d, f, had)
		}
		if err != nil {
			return fmt.Errorf("UE block field %d: %w", f, err)
		}
	}
}

// unmarshalColumn decodes column f of a block whose row count is known;
// seen has a bit for every column that came before.
func (t *UETable) unmarshalColumn(d *wire.Decoder, f int, seen uint32) error {
	switch f {
	case colRNTI:
		return unpackUints(d, t.RNTI)
	case colCell:
		return unpackUints(d, t.Cell)
	case colCQI:
		return unpackUints(d, t.CQI)
	case colDLQueue:
		return unpackUints(d, t.DLQueue)
	case colULQueue:
		return unpackUints(d, t.ULQueue)
	case colDLRate:
		return unpackUints(d, t.DLRateKbps)
	case colULRate:
		return unpackUints(d, t.ULRateKbps)
	case colHARQ:
		return unpackUints(d, t.HARQRetx)
	case colLastSched:
		return unpackUints(d, t.LastSchedSF)
	case colSubbandN:
		total, err := unpackCounts(d, t.SubbandEnd, seen&(1<<colSubbands) != 0)
		t.Subbands = resize(t.Subbands, total)
		return err
	case colSubbands:
		b, err := d.ReadBytes()
		if err == nil && len(b) != len(t.Subbands) {
			err = errBlockTotal
		}
		copy(t.Subbands, b)
		return err
	case colLCN:
		const flat = 1<<colLCID | 1<<colLCBytes | 1<<colLCHoL
		total, err := unpackCounts(d, t.LCEnd, seen&flat != 0)
		t.resizeLCs(total)
		return err
	case colLCID:
		return unpackUints(d, t.LCID)
	case colLCBytes:
		return unpackUints(d, t.LCBytes)
	case colLCHoL:
		return unpackUints(d, t.LCHoLMs)
	case colPHR:
		return unpackSints(d, t.PowerHeadroomDB)
	case colRSRP:
		return unpackSints(d, t.RSRPdBm)
	case colRSRQ:
		return unpackSints(d, t.RSRQdB)
	default: // colGroup
		return unpackUints(d, t.Group)
	}
}

func unpackUints[T wire.Uint](d *wire.Decoder, dst []T) error {
	b, err := d.ReadBytes()
	if err != nil {
		return err
	}
	return wire.UnpackUints(b, dst)
}

func unpackSints[T wire.Sint](d *wire.Decoder, dst []T) error {
	b, err := d.ReadBytes()
	if err != nil {
		return err
	}
	return wire.UnpackSints(b, dst)
}

// unpackCounts reads a per-row count column into end as running end offsets
// and returns the total, which it bounds by the bytes left in the block: the
// flat columns the total sizes are still to come (flatSeen rejects one that
// came first), one byte or more per value.
func unpackCounts(d *wire.Decoder, end []uint32, flatSeen bool) (int, error) {
	if flatSeen {
		return 0, errBlockOrder
	}
	if err := unpackUints(d, end); err != nil {
		return 0, err
	}
	total := uint64(0)
	for i, n := range end {
		total += uint64(n)
		end[i] = uint32(total)
	}
	if total > uint64(d.Remaining()) {
		return 0, errBlockTotal
	}
	return int(total), nil
}
