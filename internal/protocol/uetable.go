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
// and maps one to one onto their wire form (ueColumns), so a report travels
// from the eNodeB's per-UE records to the master's RIB filled column by
// column, without being transposed into rows and back on the way. UEStats
// remains the row type: Row reads one, Append adds one.
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

// ueColumns is the UE block's wire form, an ordinary length-delimited
// message: the row count, then one packed column per UETable field, in
// encoding order. The codec, CopyFrom and Append loop over the columns, and
// the codec writes and checks the row count, which holds no values.
var ueColumns = newColumns(
	column{fieldInfo: fieldInfo{rowCount, "count", "varint, first, at most the bytes that follow", ""}},
	uintCol(2, "rnti", sent, func(t *UETable) *[]lte.RNTI { return &t.RNTI }, func(s *UEStats) *lte.RNTI { return &s.RNTI }),
	uintCol(3, "cell", allZero, func(t *UETable) *[]lte.CellID { return &t.Cell }, func(s *UEStats) *lte.CellID { return &s.Cell }),
	uintCol(4, "cqi", allZero, func(t *UETable) *[]lte.CQI { return &t.CQI }, func(s *UEStats) *lte.CQI { return &s.CQI }),
	uintCol(5, "dl_queue", allZero, func(t *UETable) *[]uint64 { return &t.DLQueue }, func(s *UEStats) *uint64 { return &s.DLQueue }),
	uintCol(6, "ul_queue", allZero, func(t *UETable) *[]uint64 { return &t.ULQueue }, func(s *UEStats) *uint64 { return &s.ULQueue }),
	uintCol(7, "dl_rate_kbps", allZero, func(t *UETable) *[]uint32 { return &t.DLRateKbps }, func(s *UEStats) *uint32 { return &s.DLRateKbps }),
	uintCol(8, "ul_rate_kbps", allZero, func(t *UETable) *[]uint32 { return &t.ULRateKbps }, func(s *UEStats) *uint32 { return &s.ULRateKbps }),
	uintCol(9, "harq_retx", allZero, func(t *UETable) *[]uint32 { return &t.HARQRetx }, func(s *UEStats) *uint32 { return &s.HARQRetx }),
	uintCol(10, "last_sched_sf", allZero, func(t *UETable) *[]lte.Subframe { return &t.LastSchedSF }, func(s *UEStats) *lte.Subframe { return &s.LastSchedSF }),
	countCol(11, "subband_count", func(t *UETable) *[]uint32 { return &t.SubbandEnd }, func(s *UEStats) *[]uint8 { return &s.SubbandCQI }),
	subbandCol(12, "subbands", 11),
	countCol(13, "lc_count", func(t *UETable) *[]uint32 { return &t.LCEnd }, func(s *UEStats) *[]LCReport { return &s.LCs }),
	lcCol(14, "lc_id", 13, noValues, func(t *UETable) *[]uint8 { return &t.LCID }, func(l *LCReport) *uint8 { return &l.LCID }),
	lcCol(15, "lc_bytes", 13, allZero, func(t *UETable) *[]uint64 { return &t.LCBytes }, func(l *LCReport) *uint64 { return &l.Bytes }),
	lcCol(16, "lc_hol_ms", 13, allZero, func(t *UETable) *[]uint32 { return &t.LCHoLMs }, func(l *LCReport) *uint32 { return &l.HoLDelayMs }),
	sintCol(17, "power_headroom_db", func(t *UETable) *[]int32 { return &t.PowerHeadroomDB }, func(s *UEStats) *int32 { return &s.PowerHeadroomDB }),
	sintCol(18, "rsrp_dbm", func(t *UETable) *[]int32 { return &t.RSRPdBm }, func(s *UEStats) *int32 { return &s.RSRPdBm }),
	sintCol(19, "rsrq_db", func(t *UETable) *[]int32 { return &t.RSRQdB }, func(s *UEStats) *int32 { return &s.RSRQdB }),
	groupCol(20, "group"),
)

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
// reads as zero. It names the columns itself rather than walking ueColumns:
// it runs twice per report, and a call per column made the dense TTI 8 %
// slower in-process on a 2-vCPU host. TestResizeClearsEveryColumn holds it
// to the list.
func (t *UETable) Resize(n int) {
	t.RNTI, t.Cell, t.CQI = resize(t.RNTI, n), resize(t.Cell, n), resize(t.CQI, n)
	t.DLQueue, t.ULQueue = resize(t.DLQueue, n), resize(t.ULQueue, n)
	t.DLRateKbps, t.ULRateKbps, t.HARQRetx = resize(t.DLRateKbps, n), resize(t.ULRateKbps, n), resize(t.HARQRetx, n)
	t.LastSchedSF, t.Group = resize(t.LastSchedSF, n), resize(t.Group, n)
	t.PowerHeadroomDB, t.RSRPdBm, t.RSRQdB = resize(t.PowerHeadroomDB, n), resize(t.RSRPdBm, n), resize(t.RSRQdB, n)
	t.SubbandEnd, t.Subbands = resize(t.SubbandEnd, n), t.Subbands[:0]
	t.LCEnd, t.LCID, t.LCBytes, t.LCHoLMs = resize(t.LCEnd, n), t.LCID[:0], t.LCBytes[:0], t.LCHoLMs[:0]
}

// Row copies row i into s, reusing s's SubbandCQI/LCs capacity: s owns its
// bytes afterwards, so it outlives the table (which may be pooled). Like
// Resize it names the columns itself: the RIB reads every UE this way, and
// a call per column made tcp-loop's p50 TTI a quarter slower on that host.
// TestUETableRowRoundTrip holds it to Append, which walks ueColumns.
func (t *UETable) Row(i int, s *UEStats) {
	s.RNTI, s.Cell, s.CQI, s.DLQueue, s.ULQueue = t.RNTI[i], t.Cell[i], t.CQI[i], t.DLQueue[i], t.ULQueue[i]
	s.DLRateKbps, s.ULRateKbps, s.HARQRetx, s.LastSchedSF = t.DLRateKbps[i], t.ULRateKbps[i], t.HARQRetx[i], t.LastSchedSF[i]
	s.PowerHeadroomDB, s.RSRPdBm, s.RSRQdB, s.Group = t.PowerHeadroomDB[i], t.RSRPdBm[i], t.RSRQdB[i], int(t.Group[i])
	from, to := span(t.SubbandEnd, i)
	s.SubbandCQI = append(s.SubbandCQI[:0], t.Subbands[from:to]...)
	from, to = span(t.LCEnd, i)
	s.LCs = s.LCs[:0]
	for j := from; j < to; j++ {
		s.LCs = append(s.LCs, LCReport{LCID: t.LCID[j], Bytes: t.LCBytes[j], HoLDelayMs: t.LCHoLMs[j]})
	}
}

// Append adds s as the last row. A negative Group reads as the default
// group, 0.
func (t *UETable) Append(s *UEStats) {
	for c := 1; c < len(ueColumns); c++ {
		ueColumns[c].add(t, s)
	}
}

// CopyFrom makes t a copy of src, one bulk copy per column into t's own
// capacity: t shares no memory with src afterwards, so it outlives a pooled
// src, and a t whose columns have grown to src's size allocates nothing.
func (t *UETable) CopyFrom(src *UETable) {
	for c := 1; c < len(ueColumns); c++ {
		ueColumns[c].copy(t, src)
	}
}

// MarshalWire implements wire.Marshaler.
func (t *UETable) MarshalWire(e *wire.Encoder) {
	e.Uint(rowCount, uint64(t.Len()))
	for c := 1; c < len(ueColumns); c++ {
		ueColumns[c].enc(t, e)
	}
}

// Errors of the UE block decoder (value-level ones come from wire).
var (
	errBlockCount  = errors.New("row count exceeds the bytes that follow")
	errBlockOrder  = errors.New("column before its count")
	errBlockRepeat = errors.New("field repeated")
	errBlockTotal  = errors.New("flat column does not match its per-row counts")
)

// UnmarshalWire implements wire.Unmarshaler. No number from the input sizes
// anything before the bytes still to come bound it: the row count comes
// first, a count column before its flat columns. A column holds exactly the
// values announced, each in range; a known field appears once, others are
// skipped.
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
		if f > len(ueColumns) {
			if err := d.Skip(); err != nil {
				return err
			}
			continue
		}
		had := seen
		seen |= 1 << f
		switch c := &ueColumns[f-1]; {
		case had&(1<<f) != 0:
			err = errBlockRepeat
		case f == rowCount:
			var n uint64
			if n, err = d.ReadUint(); err == nil && n > uint64(d.Remaining()) {
				err = errBlockCount
			} else if err == nil {
				t.Resize(int(n))
			}
		case had&(1<<rowCount) == 0, had&c.sizes != 0:
			err = errBlockOrder
		default:
			var n int
			if n, err = c.dec(t, d); err == nil {
				for i := f; i < len(ueColumns) && ueColumns[i].under == f; i++ {
					ueColumns[i].resize(t, n) // the flat columns under f, which follow it
				}
			}
		}
		if err != nil {
			return fmt.Errorf("UE block field %d: %w", f, err)
		}
	}
}

// column is one wire field of the UE block: the row count, a per-row
// column, a count column (running end offsets, sent as counts) or a flat
// column under one. It is field[T] plus what a table needs: a resize to n
// rows and a row append.
type column struct {
	fieldInfo
	under  int    // the field that sizes it: the row count or a count column
	sizes  uint32 // a bit for every field under this one
	enc    func(*UETable, *wire.Encoder)
	dec    func(*UETable, *wire.Decoder) (n int, err error) // n: the size of the columns under it
	resize func(t *UETable, n int)                          // to n zero values, keeping capacity
	copy   func(dst, src *UETable)
	add    func(t *UETable, s *UEStats) // appends s as a row
}

// rowCount is the UE block's field 1, the number of rows.
const rowCount = 1

// When a column is left out, which then reads back as zeros.
const (
	sent     = ""                     // never: the RNTIs, which make the rows
	allZero  = ", omitted when all 0" // when every value is 0
	noValues = ", omitted when empty" // the flat columns that bound their count's total
)

// newColumns links every column to the one it is under. The decoder finds
// a column by its number and a count column's flat columns right after it,
// so a list not numbered 1, 2, ... in that order fails at init.
func newColumns(list ...column) []column {
	for i := range list {
		c := &list[i]
		if c.num != i+1 || c.under >= c.num || c.under > rowCount && c.under != list[i-1].num && c.under != list[i-1].under {
			panic(fmt.Sprintf("protocol: UE block field %d (%s) declared out of order", c.num, c.name))
		}
		if c.under != 0 {
			list[c.under-1].sizes |= 1 << c.num
		}
	}
	return list
}

// vals is a column over the slice at: its resize, its copy and, for a
// per-row column, the append of of's field of UEStats. Constructors add the
// codec, calling wire directly.
func vals[V any](num int, name, shape string, under int, at func(*UETable) *[]V, of func(*UEStats) *V) column {
	return column{
		fieldInfo: fieldInfo{num, name, shape, fmt.Sprintf("%T", []V(nil))},
		under:     under,
		resize:    func(t *UETable, n int) { p := at(t); *p = resize(*p, n) },
		copy:      func(dst, src *UETable) { p := at(dst); *p = append((*p)[:0], *at(src)...) },
		add:       func(t *UETable, s *UEStats) { p := at(t); *p = append(*p, *of(s)) },
	}
}

// flat appends a row's values, of(s, j) for j in the span its count column
// (earlier in ueColumns) has just added to end.
func flat[V any](c column, end func(*UETable) *[]uint32, at func(*UETable) *[]V, of func(*UEStats, int) *V) column {
	c.add = func(t *UETable, s *UEStats) {
		from, to := span(*end(t), len(*end(t))-1)
		for j := range int(to - from) {
			*at(t) = append(*at(t), *of(s, j))
		}
	}
	return c
}

// uintCol is a column of packed varints.
func uintCol[V wire.Uint](num int, name string, omit string, at func(*UETable) *[]V, of func(*UEStats) *V) column {
	c, nonZero := vals(num, name, "packed varint, one per row"+omit, rowCount, at, of), omit == allZero
	c.enc = func(t *UETable, e *wire.Encoder) {
		switch vs := *at(t); {
		case nonZero:
			wire.PackNonZeroUints(e, num, vs)
		case omit == sent || len(vs) > 0:
			wire.PackUints(e, num, vs)
		}
	}
	c.dec = func(t *UETable, d *wire.Decoder) (int, error) { return 0, unpack(d, *at(t), wire.UnpackUints[V]) }
	return c
}

func sintCol[V wire.Sint](num int, name string, at func(*UETable) *[]V, of func(*UEStats) *V) column {
	c := vals(num, name, "packed zigzag varint, one per row"+allZero, rowCount, at, of)
	c.enc = func(t *UETable, e *wire.Encoder) { wire.PackNonZeroSints(e, num, *at(t)) }
	c.dec = func(t *UETable, d *wire.Decoder) (int, error) { return 0, unpack(d, *at(t), wire.UnpackSints[V]) }
	return c
}

// groupCol is an int in UEStats; a negative group is the default one, 0.
func groupCol(num int, name string) column {
	c := uintCol(num, name, allZero, func(t *UETable) *[]uint32 { return &t.Group }, nil)
	c.add = func(t *UETable, s *UEStats) { t.Group = append(t.Group, uint32(max(s.Group, 0))) }
	return c
}

// countCol counts the UEStats list of. Decoding, it bounds the total by the
// bytes left, where the flat columns are still to come.
func countCol[E any](num int, name string, at func(*UETable) *[]uint32, of func(*UEStats) *[]E) column {
	c := vals(num, name, "packed varint, a count per row (end offsets in Go)"+allZero, rowCount, at, nil)
	c.enc = func(t *UETable, e *wire.Encoder) {
		if end := *at(t); len(end) > 0 && end[len(end)-1] > 0 {
			wire.PackCounts(e, num, end)
		}
	}
	c.dec = func(t *UETable, d *wire.Decoder) (int, error) {
		end := *at(t)
		if err := unpack(d, end, wire.UnpackUints[uint32]); err != nil {
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
	c.add = func(t *UETable, s *UEStats) {
		p, n := at(t), uint32(len(*of(s)))
		if len(*p) > 0 {
			n += (*p)[len(*p)-1]
		}
		*p = append(*p, n)
	}
	return c
}

// subbandCol holds the subband CQIs as raw bytes.
func subbandCol(num int, name string, under int) column {
	at := func(t *UETable) *[]uint8 { return &t.Subbands }
	c := flat(vals(num, name, fmt.Sprintf("bytes, flat under %d%s", under, noValues), under, at, nil),
		func(t *UETable) *[]uint32 { return &t.SubbandEnd }, at, func(s *UEStats, j int) *uint8 { return &s.SubbandCQI[j] })
	c.enc = func(t *UETable, e *wire.Encoder) {
		if len(t.Subbands) > 0 {
			e.BytesField(num, t.Subbands)
		}
	}
	c.dec = func(t *UETable, d *wire.Decoder) (int, error) {
		b, err := d.ReadBytes()
		if err == nil && len(b) != len(t.Subbands) {
			err = errBlockTotal
		}
		copy(t.Subbands, b)
		return 0, err
	}
	return c
}

// lcCol is a uintCol flat under the LC counts: of's field of every LC.
func lcCol[V wire.Uint](num int, name string, under int, omit string, at func(*UETable) *[]V, of func(*LCReport) *V) column {
	c := flat(uintCol(num, name, omit, at, nil), func(t *UETable) *[]uint32 { return &t.LCEnd }, at, func(s *UEStats, j int) *V { return of(&s.LCs[j]) })
	c.under, c.shape = under, fmt.Sprintf("packed varint, flat under %d%s", under, omit)
	return c
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

// unpack reads the pending packed field into dst with wire's Unpack*.
func unpack[T any](d *wire.Decoder, dst []T, with func([]byte, []T) error) error {
	b, err := d.ReadBytes()
	if err != nil {
		return err
	}
	return with(b, dst)
}
