package protocol

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"flexran/internal/wire"
)

// The UE block codec as it was written by hand, column by column, before
// the columns became one list (ueColumns). It is kept as the reference
// implementation FuzzUEBlock checks the list-driven codec against, and its
// field numbers are the ones the tests' hand-built frames use.

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

func oracleResize(t *UETable, n int) {
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
	oracleResizeLCs(t, 0)
}

func oracleResizeLCs(t *UETable, n int) {
	t.LCID = resize(t.LCID, n)
	t.LCBytes = resize(t.LCBytes, n)
	t.LCHoLMs = resize(t.LCHoLMs, n)
}

func oracleMarshal(t *UETable, e *wire.Encoder) {
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

func oracleUnmarshal(t *UETable, d *wire.Decoder) error {
	var seen uint32
	for {
		ok, err := d.Next()
		if err != nil {
			return err
		}
		if !ok {
			if seen == 0 {
				oracleResize(t, 0) // a block with no count has no rows
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
				oracleResize(t, int(n))
			}
		case had&(1<<colCount) == 0:
			err = errBlockOrder
		default:
			err = oracleColumn(t, d, f, had)
		}
		if err != nil {
			return fmt.Errorf("UE block field %d: %w", f, err)
		}
	}
}

func oracleColumn(t *UETable, d *wire.Decoder, f int, seen uint32) error {
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
		total, err := oracleCounts(d, t.SubbandEnd, seen&(1<<colSubbands) != 0)
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
		total, err := oracleCounts(d, t.LCEnd, seen&flat != 0)
		oracleResizeLCs(t, total)
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

func oracleCounts(d *wire.Decoder, end []uint32, flatSeen bool) (int, error) {
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

// sameTable reports whether two tables hold the same values, column by
// column; a nil column and an empty one are the same.
func sameTable(a, b *UETable) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Len() != fb.Len() || (fa.Len() > 0 && !reflect.DeepEqual(fa.Interface(), fb.Interface())) {
			return false
		}
	}
	return true
}

// ueBlockOf digs the UE block out of a StatsReply frame, false when the
// frame is cut before the block ends.
func ueBlockOf(frame []byte) ([]byte, bool) {
	b := frame
	for _, field := range []int{envPayload, statsUEs} {
		d, found := wire.NewDecoder(b), false
		for !found {
			ok, err := d.Next()
			if err != nil || !ok {
				return nil, false
			}
			if d.Field() != field {
				err = d.Skip()
			} else if b, err = d.ReadBytes(); err == nil {
				found = true
			}
			if err != nil {
				return nil, false
			}
		}
	}
	return b, true
}

// FuzzUEBlock checks the list-driven UE block codec against the
// hand-written one above, for any block bytes: both accept or both refuse
// with the same error text, an accepted block decodes to the same table on
// both, into a fresh table or a dirty one, and that table encodes to the
// same bytes on both, which wire.Size counts.
func FuzzUEBlock(f *testing.F) {
	for _, p := range corpusPayloads() {
		var t *UETable
		switch p := p.(type) {
		case *StatsReply:
			t = &p.UEs
		case *StateSnapshot:
			t = &p.UEs
		}
		if t != nil && t.Len() > 0 {
			b := wire.Marshal(t)
			f.Add(b)
			f.Add(b[:len(b)-2])
		}
	}
	for _, h := range hostileBlocks() {
		if b, ok := ueBlockOf(h.frame); ok {
			f.Add(b)
		}
	}
	dirty := func() UETable {
		return UETableOf(
			UEStats{RNTI: 1, CQI: 3, SubbandCQI: []uint8{1, 2, 3}, LCs: []LCReport{{LCID: 4, Bytes: 5}}, RSRPdBm: -70, Group: 1},
			UEStats{RNTI: 2, DLQueue: 9, LCs: []LCReport{{LCID: 1, HoLDelayMs: 8}, {LCID: 2}}},
		)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, start := range []func() UETable{func() UETable { return UETable{} }, dirty} {
			got, want := start(), start()
			gotErr := wire.Unmarshal(b, &got)
			wantErr := oracleUnmarshal(&want, wire.NewDecoder(b))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%x: list decoder says %v, hand-written one %v", b, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !sameTable(&got, &want) {
				t.Fatalf("%x: list decoder read\n%+v\nhand-written one\n%+v", b, got, want)
			}
			var e wire.Encoder
			oracleMarshal(&want, &e)
			enc := wire.Marshal(&got)
			if !bytes.Equal(enc, e.Bytes()) {
				t.Fatalf("%x: list encoder wrote\n%x\nhand-written one\n%x", b, enc, e.Bytes())
			}
			if n := wire.Size(&got); n != len(enc) {
				t.Fatalf("%x: wire.Size = %d, MarshalWire wrote %d", b, n, len(enc))
			}
		}
	})
}
