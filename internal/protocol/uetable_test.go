package protocol

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"flexran/internal/wire"
)

// hostileBlock is a StatsReply frame whose UE block breaks one decoder rule.
type hostileBlock struct {
	name  string
	frame []byte
	want  string // substring of the decode error
}

// hostileBlocks builds the frames by hand, field by field, so each can say
// exactly what the canonical encoder never would. Counts that would size
// something are huge on purpose: a decoder that trusted one would show up in
// the allocation bound of TestHostileUEBlocks.
func hostileBlocks() []hostileBlock {
	const huge = 1 << 40
	frame := func(block func(e *wire.Encoder)) []byte {
		var e wire.Encoder
		e.Uint(envKind, uint64(KindStatsReply))
		e.Uint(envENB, 7)
		e.Uint(envSF, 9)
		payload := e.Begin(envPayload)
		e.Uint(statsID, 1)
		b := e.Begin(statsUEs)
		block(&e)
		e.End(b)
		e.End(payload)
		return bytes.Clone(e.Bytes())
	}
	// rows opens a well-formed block of n rows with RNTIs 70, 71, ...
	rows := func(e *wire.Encoder, n int) {
		e.Uint(colCount, uint64(n))
		rnti := make([]uint16, n)
		for i := range rnti {
			rnti[i] = uint16(70 + i)
		}
		wire.PackUints(e, colRNTI, rnti)
	}
	over := append(bytes.Repeat([]byte{0xff}, 10), 0x01) // 11-byte varint
	return []hostileBlock{
		{"count beyond the remaining bytes", frame(func(e *wire.Encoder) {
			e.Uint(colCount, huge)
			wire.PackUints(e, colRNTI, []uint16{70, 71})
		}), "row count exceeds"},
		{"count with nothing after it", frame(func(e *wire.Encoder) {
			e.Uint(colCount, 1)
		}), "row count exceeds"},
		{"count twice", frame(func(e *wire.Encoder) {
			rows(e, 2)
			e.Uint(colCount, 2)
		}), "field repeated"},
		{"column twice", frame(func(e *wire.Encoder) {
			rows(e, 2)
			wire.PackUints(e, colRNTI, []uint16{70, 71})
		}), "field repeated"},
		{"column before count", frame(func(e *wire.Encoder) {
			wire.PackUints(e, colCQI, []uint8{9, 9})
			rows(e, 2)
		}), "column before its count"},
		{"column one short", frame(func(e *wire.Encoder) {
			rows(e, 3)
			wire.PackUints(e, colCQI, []uint8{9, 9})
		}), "truncated"},
		{"column one long", frame(func(e *wire.Encoder) {
			rows(e, 3)
			wire.PackUints(e, colCQI, []uint8{9, 9, 9, 9})
		}), "trailing bytes"},
		{"signed column one long", frame(func(e *wire.Encoder) {
			rows(e, 1)
			wire.PackSints(e, colRSRP, []int32{-90, -91})
		}), "trailing bytes"},
		{"LC ids fewer than the per-row counts", frame(func(e *wire.Encoder) {
			rows(e, 2)
			wire.PackUints(e, colLCN, []uint32{1, 2})
			wire.PackUints(e, colLCID, []uint8{1, 2})
			wire.PackUints(e, colLCBytes, []uint64{5, 6, 7})
		}), "truncated"},
		{"LC bytes more than the per-row counts", frame(func(e *wire.Encoder) {
			rows(e, 2)
			wire.PackUints(e, colLCN, []uint32{1, 1})
			wire.PackUints(e, colLCID, []uint8{1, 2})
			wire.PackUints(e, colLCBytes, []uint64{5, 6, 7})
		}), "trailing bytes"},
		{"LC total beyond the remaining bytes", frame(func(e *wire.Encoder) {
			rows(e, 2)
			wire.PackUints(e, colLCN, []uint32{1 << 31, 1 << 31})
			wire.PackUints(e, colLCID, []uint8{1})
		}), "does not match its per-row counts"},
		{"LC column without per-row counts", frame(func(e *wire.Encoder) {
			rows(e, 2)
			wire.PackUints(e, colLCHoL, []uint32{4})
		}), "trailing bytes"},
		{"LC column before its per-row counts", frame(func(e *wire.Encoder) {
			rows(e, 2)
			wire.PackUints(e, colLCID, []uint8(nil))
			wire.PackUints(e, colLCN, []uint32{0, 1})
		}), "column before its count"},
		{"subband bytes fewer than the per-row counts", frame(func(e *wire.Encoder) {
			rows(e, 2)
			wire.PackUints(e, colSubbandN, []uint32{2, 2})
			e.BytesField(colSubbands, []byte{9, 9, 9})
		}), "does not match its per-row counts"},
		{"subband bytes without per-row counts", frame(func(e *wire.Encoder) {
			rows(e, 2)
			e.BytesField(colSubbands, []byte{9})
		}), "does not match its per-row counts"},
		{"subband total beyond the remaining bytes", frame(func(e *wire.Encoder) {
			rows(e, 2)
			wire.PackUints(e, colSubbandN, []uint32{1 << 31, 1 << 31})
		}), "does not match its per-row counts"},
		{"per-row count beyond uint32", frame(func(e *wire.Encoder) {
			rows(e, 1)
			wire.PackUints(e, colSubbandN, []uint64{huge})
		}), "out of range"},
		{"RNTI beyond 16 bits", frame(func(e *wire.Encoder) {
			e.Uint(colCount, 2)
			wire.PackUints(e, colRNTI, []uint32{70, 0x10000})
		}), "out of range"},
		{"CQI beyond 8 bits", frame(func(e *wire.Encoder) {
			rows(e, 1)
			wire.PackUints(e, colCQI, []uint16{256})
		}), "out of range"},
		{"RSRP beyond int32", frame(func(e *wire.Encoder) {
			rows(e, 1)
			wire.PackSints(e, colRSRP, []int64{-1<<31 - 1})
		}), "out of range"},
		{"group beyond uint32", frame(func(e *wire.Encoder) {
			rows(e, 1)
			wire.PackUints(e, colGroup, []uint64{1 << 32})
		}), "out of range"},
		{"truncated varint inside a column", frame(func(e *wire.Encoder) {
			rows(e, 2)
			e.BytesField(colDLQueue, []byte{0x05, 0x80})
		}), "truncated"},
		{"11-byte varint inside a column", frame(func(e *wire.Encoder) {
			rows(e, 1)
			e.BytesField(colDLQueue, over)
		}), "overflows"},
		{"11-byte varint inside a signed column", frame(func(e *wire.Encoder) {
			rows(e, 1)
			e.BytesField(colPHR, over)
		}), "overflows"},
		{"column with a varint wire type", frame(func(e *wire.Encoder) {
			rows(e, 1)
			e.Uint(colCQI, 9)
		}), "wire type"},
		{"block cut inside a column", func() []byte {
			f := frame(func(e *wire.Encoder) {
				rows(e, 2)
				wire.PackUints(e, colDLQueue, []uint64{1 << 20, 1 << 21})
			})
			return f[:len(f)-2]
		}(), "truncated"},
	}
}

// TestHostileUEBlocks: every malformed block is a decode error on both
// decode paths — never a panic, and never an allocation sized by a number
// the input merely claims.
func TestHostileUEBlocks(t *testing.T) {
	for _, c := range hostileBlocks() {
		for _, decode := range []func([]byte) (*Message, error){Decode, DecodePooled} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := decode(c.frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: decoded to %+v, want an error", c.name, m.Payload)
				continue
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
			}
			// The envelope, the payload struct, the error and first-use
			// pool set-up are a few kilobytes whatever the frame claims;
			// the smallest claim above would be gigabytes.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(c.frame), got)
			}
		}
	}
}

// TestUEBlockSkipsUnknownColumns: a block from a newer sender, with columns
// this decoder has never heard of, decodes to the columns it knows.
func TestUEBlockSkipsUnknownColumns(t *testing.T) {
	want := UETableOf(UEStats{RNTI: 70, CQI: 9}, UEStats{RNTI: 71, CQI: 11, Group: 2})
	var e wire.Encoder
	want.MarshalWire(&e)
	wire.PackUints(&e, colMax, []uint32{1, 2, 3}) // not two values: not ours to check
	e.Uint(colMax+7, 99)
	var got UETable
	if err := wire.Unmarshal(e.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if gr, wr := tableRows(&got), tableRows(&want); len(gr) != 2 || gr[0].CQI != wr[0].CQI || gr[1].Group != 2 {
		t.Errorf("rows = %+v, want %+v", gr, wr)
	}
}

// TestUEColumnsCoverTheTable: the UE block's fields are numbered 1 to 20
// with none reused, and every slice field of UETable is the column of
// exactly one of them, with the Go type the reference prints. A column
// added to the struct and not to the list fails here.
func TestUEColumnsCoverTheTable(t *testing.T) {
	if len(ueColumns) != 20 {
		t.Errorf("the UE block declares %d fields, want 20", len(ueColumns))
	}
	typ := reflect.TypeOf(UETable{})
	owner := map[string]int{} // UETable field → the block field holding it
	for i, c := range ueColumns {
		if c.num != i+1 {
			t.Errorf("entry %d (%s) is field %d", i, c.name, c.num)
		}
		if c.num == rowCount {
			continue // holds no values
		}
		held := heldFields(c)
		if len(held) != 1 {
			t.Errorf("field %d (%s) resizes and copies %v, want one UETable field", c.num, c.name, held)
			continue
		}
		if prev, dup := owner[held[0]]; dup {
			t.Errorf("UETable.%s is the column of fields %d and %d", held[0], prev, c.num)
		}
		owner[held[0]] = c.num
		if f, _ := typ.FieldByName(held[0]); f.Type.String() != c.goType {
			t.Errorf("field %d (%s) declares Go type %s, UETable.%s is %s", c.num, c.name, c.goType, held[0], f.Type)
		}
	}
	for f := range typ.NumField() {
		if name := typ.Field(f).Name; typ.Field(f).Type.Kind() == reflect.Slice && owner[name] == 0 {
			t.Errorf("UETable.%s is no field of the UE block", name)
		}
	}
}

// heldFields names the UETable fields column c resizes and copies.
func heldFields(c column) []string {
	var tab, cp UETable
	c.resize(&tab, 3)
	c.copy(&cp, &tab)
	var held []string
	for f := range reflect.TypeOf(tab).NumField() {
		if reflect.ValueOf(tab).Field(f).Len() == 3 && reflect.ValueOf(cp).Field(f).Len() == 3 {
			held = append(held, reflect.TypeOf(tab).Field(f).Name)
		}
	}
	return held
}

// TestResizeClearsEveryColumn: Resize, which names the columns itself,
// leaves every per-row column of ueColumns n zeros and every flat column
// empty, whatever the table held before.
func TestResizeClearsEveryColumn(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 3, 40} {
		tab := UETableOf(randomRow(rnd, 1), randomRow(rnd, 2), randomRow(rnd, 3), randomRow(rnd, 4), randomRow(rnd, 5))
		tab.Resize(n)
		for _, c := range ueColumns[1:] {
			want := n
			if c.under != rowCount {
				want = 0
			}
			col := reflect.ValueOf(tab).FieldByName(heldFields(c)[0])
			if col.Len() != want {
				t.Errorf("Resize(%d): field %d (%s) has %d values, want %d", n, c.num, c.name, col.Len(), want)
			}
			for j := range col.Len() {
				if !col.Index(j).IsZero() {
					t.Errorf("Resize(%d): field %d (%s) value %d is %v", n, c.num, c.name, j, col.Index(j))
				}
			}
		}
	}
}

// TestUETableRowRoundTrip: for random tables, with and without subbands
// and logical channels, every row reads back as the row appended (a
// negative group as 0), appending the rows read rebuilds the table, and
// CopyFrom into a table that held other rows equals the source.
func TestUETableRowRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	norm := func(s UEStats) UEStats {
		s.Group = max(s.Group, 0)
		if len(s.SubbandCQI) == 0 {
			s.SubbandCQI = nil
		}
		if len(s.LCs) == 0 {
			s.LCs = nil
		}
		return s
	}
	for trial := range 300 {
		rows := make([]UEStats, rnd.Intn(7))
		for i := range rows {
			rows[i] = randomRow(rnd, i)
			rows[i].Group -= rnd.Intn(3)
		}
		src := UETableOf(rows...)
		var rebuilt UETable
		var s UEStats // reused: Row must overwrite all of it
		for i := range rows {
			src.Row(i, &s)
			if got, want := norm(s), norm(rows[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d row %d: read %+v, appended %+v", trial, i, got, want)
			}
			rebuilt.Append(&s)
		}
		if !sameTable(&rebuilt, &src) {
			t.Fatalf("trial %d: rows read and appended again give\n%+v\nwant\n%+v", trial, rebuilt, src)
		}
		dirty := UETableOf(randomRow(rnd, 1), randomRow(rnd, 2), randomRow(rnd, 3))
		dirty.CopyFrom(&src)
		if !sameTable(&dirty, &src) {
			t.Fatalf("trial %d: CopyFrom gives\n%+v\nwant\n%+v", trial, dirty, src)
		}
	}
}
