package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/wire"
)

// The six payload structs with hand-tuned codecs declare their field tables
// here: the tables are the reference implementation the tuned code is
// checked against (TestTunedCodecsMatchTables), and what the README's
// protocol reference prints for them.
var (
	cellStatsRef = newFields(
		uintF(1, "cell", func(p *CellStats) *lte.CellID { return &p.Cell }),
		uintF(2, "used_prb", func(p *CellStats) *uint32 { return &p.UsedPRB }),
		uintF(3, "total_prb", func(p *CellStats) *uint32 { return &p.TotalPRB }),
		boolF(4, "abs", func(p *CellStats) *bool { return &p.ABS }),
	)
	statsReplyRef = newFields(
		uintF(statsID, "id", func(p *StatsReply) *uint32 { return &p.ID }),
		uintF(statsSF, "sf", func(p *StatsReply) *lte.Subframe { return &p.SF }),
		retired[StatsReply](3, "ues, one message per UE"),
		repF(statsCells, "cells", func(p *StatsReply) *[]CellStats { return &p.Cells }),
		ueBlockF(statsUEs, "ues", func(p *StatsReply) *UETable { return &p.UEs }),
	)
	subframeTriggerRef = newFields(
		uintF(1, "sf", func(p *SubframeTrigger) *lte.Subframe { return &p.SF }),
	)
	allocRef = newFields(
		uintF(1, "rnti", func(p *Alloc) *lte.RNTI { return &p.RNTI }),
		uintF(2, "rb_start", func(p *Alloc) *uint16 { return &p.RBStart }),
		uintF(3, "rb_count", func(p *Alloc) *uint16 { return &p.RBCount }),
		uintF(4, "mcs", func(p *Alloc) *lte.MCS { return &p.MCS }),
	)
	dlScheduleRef = newFields(
		uintF(1, "cell", func(p *DLSchedule) *lte.CellID { return &p.Cell }),
		uintF(2, "target_sf", func(p *DLSchedule) *lte.Subframe { return &p.TargetSF }),
		repF(3, "allocs", func(p *DLSchedule) *[]Alloc { return &p.Allocs }),
	)
	ulScheduleRef = newFields(
		uintF(1, "cell", func(p *ULSchedule) *lte.CellID { return &p.Cell }),
		uintF(2, "target_sf", func(p *ULSchedule) *lte.Subframe { return &p.TargetSF }),
		repF(3, "allocs", func(p *ULSchedule) *[]Alloc { return &p.Allocs }),
	)
)

// codec is a message struct seen through its own methods.
type codec interface {
	wire.Marshaler
	wire.Unmarshaler
}

// structRef is one message struct of the package, type-erased: what its
// field table says, and how to run the table and the struct's own methods.
type structRef struct {
	name  string // Go type, "protocol.Hello"
	info  []fieldInfo
	tuned bool         // the struct's methods are hand-written, the table test-side
	new   func() codec // a zero value
	// marshal, unmarshal and reset run the table on a value new returned.
	marshal   func(codec, *wire.Encoder)
	unmarshal func(codec, *wire.Decoder) error
	reset     func(codec)
}

func refOf[T any, P message[T]](fs *fields[T], tuned bool) structRef {
	r := structRef{
		name: fmt.Sprintf("%T", *new(T)), tuned: tuned,
		new:       func() codec { return P(new(T)) },
		marshal:   func(c codec, e *wire.Encoder) { fs.marshal((*T)(c.(P)), e) },
		unmarshal: func(c codec, d *wire.Decoder) error { return fs.unmarshal((*T)(c.(P)), d) },
		reset:     func(c codec) { fs.reset((*T)(c.(P))) },
	}
	for _, f := range fs.list {
		r.info = append(r.info, f.fieldInfo)
	}
	return r
}

// structRefs lists every struct with a wire form except the envelope and
// the UE block, which are not field tables. TestProtocolReference walks it
// from the kinds table and fails on a struct that is reachable and missing.
var structRefs = []structRef{
	refOf(helloFields, false), refOf(helloAckFields, false),
	refOf(echoFields, false), refOf(echoReplyFields, false),
	refOf(enbConfigRequestFields, false), refOf(enbConfigReplyFields, false),
	refOf(ueConfigRequestFields, false), refOf(ueConfigReplyFields, false),
	refOf(statsRequestFields, false), refOf(statsReplyRef, true),
	refOf(subframeTriggerRef, true), refOf(dlScheduleRef, true), refOf(ulScheduleRef, true),
	refOf(ueEventFields, false), refOf(vsfUpdateFields, false),
	refOf(policyReconfFields, false), refOf(controlAckFields, false),
	refOf(measReportFields, false), refOf(handoverCommandFields, false),
	refOf(handoverCompleteFields, false), refOf(resyncRequestFields, false),
	refOf(stateSnapshotFields, false),
	// nested only
	refOf(enbConfigFields, false), refOf(cellConfigFields, false), refOf(ueConfigFields, false),
	refOf(cellStatsRef, true), refOf(allocRef, true), refOf(neighborMeasFields, false),
}

const ueTableType = "protocol.UETable"

// refByName finds a struct's entry by Go type name.
func refByName(name string) (structRef, bool) {
	for _, r := range structRefs {
		if r.name == name {
			return r, true
		}
	}
	return structRef{}, false
}

// nested returns the Go type of the message a field carries, "" for a
// field that is not a message.
func (f fieldInfo) nested() string {
	if strings.HasPrefix(f.shape, "message") || strings.HasPrefix(f.shape, "UE block") {
		return strings.TrimPrefix(f.goType, "[]")
	}
	return ""
}

// maxField is the largest number a struct declares, retired ones included.
func maxField(typ string) int {
	if typ == ueTableType {
		return colMax - 1
	}
	if typ == "protocol.Message" {
		return envCmdSeq
	}
	r, _ := refByName(typ)
	n := 0
	for _, f := range r.info {
		n = max(n, f.num)
	}
	return n
}

// TestFieldTableRejectsDuplicateNumbers: a table that declares a number
// twice — a retired one included — does not get past init.
func TestFieldTableRejectsDuplicateNumbers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newFields accepted two fields numbered 4")
		}
	}()
	newFields(
		retired[UEConfig](4, "was"),
		uintF(4, "imsi", func(p *UEConfig) *uint64 { return &p.IMSI }),
	)
}

// Random values for the tuned structs. Every scalar spans its type's whole
// range, so multi-byte varints and the range checks' edges are drawn.

func randomCellStats(r *rand.Rand) CellStats {
	return CellStats{Cell: lte.CellID(r.Uint32()), UsedPRB: r.Uint32() >> uint(r.Intn(32)),
		TotalPRB: r.Uint32(), ABS: r.Intn(2) == 0}
}

func randomAlloc(r *rand.Rand) Alloc {
	return Alloc{RNTI: lte.RNTI(r.Uint32()), RBStart: uint16(r.Uint32() >> uint(r.Intn(16))),
		RBCount: uint16(r.Uint32()), MCS: lte.MCS(r.Uint32())}
}

func randomDLSchedule(r *rand.Rand) DLSchedule {
	s := DLSchedule{Cell: lte.CellID(r.Uint32()), TargetSF: lte.Subframe(r.Uint64() >> uint(r.Intn(64)))}
	for n := r.Intn(5); n > 0; n-- {
		s.Allocs = append(s.Allocs, randomAlloc(r))
	}
	return s
}

func randomStatsReply(r *rand.Rand) StatsReply {
	s := StatsReply{ID: r.Uint32() >> uint(r.Intn(32)), SF: lte.Subframe(r.Uint64() >> uint(r.Intn(64)))}
	for i, n := 0, r.Intn(4); i < n; i++ {
		row := randomRow(r, i)
		s.UEs.Append(&row)
	}
	for n := r.Intn(3); n > 0; n-- {
		s.Cells = append(s.Cells, randomCellStats(r))
	}
	return s
}

// TestTunedCodecsMatchTables holds the hand-written codecs to their field
// tables (the TestSchedulersMatchReference pattern): on the corpus payloads
// and on 3,000 seeded random values per struct, the struct's MarshalWire
// and the table's marshal produce the same bytes, the struct's UnmarshalWire
// and the table's unmarshal read them back to the same value, and the two
// resets leave the same (empty) message behind.
func TestTunedCodecsMatchTables(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	values := map[string][]codec{}
	add := func(c codec) {
		name := strings.TrimPrefix(fmt.Sprintf("%T", c), "*")
		values[name] = append(values[name], c)
	}
	for _, p := range corpusPayloads() {
		add(p)
		switch p := p.(type) {
		case *StatsReply:
			add(&p.Cells[0])
		case *DLSchedule:
			add(&p.Allocs[0])
		}
	}
	for i := 0; i < 3000; i++ {
		cs, al, dl, ul, sr := randomCellStats(r), randomAlloc(r), randomDLSchedule(r), ULSchedule(randomDLSchedule(r)), randomStatsReply(r)
		add(&cs)
		add(&al)
		add(&dl)
		add(&ul)
		add(&sr)
		add(&SubframeTrigger{SF: lte.Subframe(r.Uint64() >> uint(r.Intn(64)))})
	}
	for _, ref := range structRefs {
		if !ref.tuned {
			continue
		}
		if len(values[ref.name]) < 3000 {
			t.Errorf("%s: %d values to check, want the corpus and 3,000 random ones", ref.name, len(values[ref.name]))
		}
		empty := wire.Marshal(ref.new())
		for _, v := range values[ref.name] {
			tuned := wire.Marshal(v)
			var e wire.Encoder
			ref.marshal(v, &e)
			if !bytes.Equal(tuned, e.Bytes()) {
				t.Fatalf("%s %+v: encodings differ:\ntuned %x\ntable %x", ref.name, v, tuned, e.Bytes())
			}
			byTuned, byTable := ref.new(), ref.new()
			if err := wire.Unmarshal(tuned, byTuned); err != nil {
				t.Fatalf("%s %+v: tuned decode: %v", ref.name, v, err)
			}
			if err := ref.unmarshal(byTable, wire.NewDecoder(tuned)); err != nil {
				t.Fatalf("%s %+v: table decode: %v", ref.name, v, err)
			}
			if !reflect.DeepEqual(byTuned, v) || !reflect.DeepEqual(byTable, v) {
				t.Fatalf("%s: decodes differ:\n want %+v\ntuned %+v\ntable %+v", ref.name, v, byTuned, byTable)
			}
			if p, ok := byTuned.(Payload); ok && kinds[p.Kind()].reset != nil {
				kinds[p.Kind()].reset(p)
				ref.reset(byTable)
				if !reflect.DeepEqual(byTuned, byTable) || !bytes.Equal(wire.Marshal(byTuned), empty) {
					t.Fatalf("%s: resets differ or leave state behind:\ntuned %+v\ntable %+v", ref.name, byTuned, byTable)
				}
			}
		}
	}
}

// TestScalarsNeverTruncate: whatever varint a peer puts in a scalar field,
// the struct either decodes to exactly that value or refuses the message
// with wire.ErrRange — for every field of every struct, tuned ones through
// their own decoders. (A bool reads any non-zero varint as true.)
func TestScalarsNeverTruncate(t *testing.T) {
	probes := []uint64{1, 0xff, 0x100, 0xffff, 0x10000, 0x10046, 1<<32 - 1, 1 << 32, 1<<32 + 2, 1<<63 + 5, 1<<64 - 1}
	for _, ref := range structRefs {
		for _, f := range ref.info {
			if !strings.Contains(f.shape, "varint") || f.goType == "bool" {
				continue
			}
			refused := false
			for _, v := range probes {
				var in wire.Encoder
				in.Uint(f.num, v)
				s := ref.new()
				err := wire.Unmarshal(in.Bytes(), s)
				if err != nil {
					if !errors.Is(err, wire.ErrRange) {
						t.Errorf("%s.%s = %#x: %v, want wire.ErrRange", ref.name, f.name, v, err)
					}
					refused = true
					continue
				}
				d := wire.NewDecoder(wire.Marshal(s))
				got, found := uint64(0), false
				for {
					ok, err := d.Next()
					if err != nil || !ok {
						break
					}
					if d.Field() == f.num && d.WireType() == wire.TVarint {
						got, _ = d.ReadUint()
						found = true
					} else if d.Skip() != nil {
						break
					}
				}
				if !found || got != v {
					t.Errorf("%s.%s: sent %#x, decoded and re-sent as %#x", ref.name, f.name, v, got)
				}
			}
			// Only a 64-bit field holds every probe.
			if wide := strings.HasSuffix(f.goType, "64") || f.goType == "lte.Subframe"; wide == refused {
				t.Errorf("%s.%s (%s): refused an out-of-range probe = %v, want %v", ref.name, f.name, f.goType, refused, !wide)
			}
		}
	}
}

// rangeFrame is a handover_command frame built by hand, so that it can say
// what no typed sender can.
type rangeFrame struct {
	name  string
	frame []byte
	bad   bool
}

// rangeFrames are the three frames that used to decode as another UE's
// handover (and the same defect in the envelope's eNodeB id), with the
// in-range frame beside them.
func rangeFrames() []rangeFrame {
	frame := func(kind, enb, rnti, target uint64) []byte {
		var e wire.Encoder
		e.Uint(envKind, kind)
		e.Uint(envENB, enb)
		e.Uint(envSF, 12345)
		p := e.Begin(envPayload)
		e.Uint(1, rnti)
		e.Uint(2, 208950000000001)
		e.Uint(3, target)
		e.Uint(4, 1)
		e.End(p)
		return bytes.Clone(e.Bytes())
	}
	hc := uint64(KindHandoverCommand)
	return []rangeFrame{
		{"in range", frame(hc, 7, 0x46, 2), false},
		{"kind 275", frame(275, 7, 0x46, 2), true}, // 275 & 0xFF is handover_command
		{"RNTI 0x10046", frame(hc, 7, 0x10046, 2), true},
		{"target eNodeB 2^32+2", frame(hc, 7, 0x46, 1<<32+2), true},
		{"envelope eNodeB 2^32+2", frame(hc, 1<<32+2, 0x46, 2), true},
	}
}

// TestOutOfRangeFrames: each out-of-range frame is wire.ErrRange on both
// decode paths, not a truncated message, and the in-range one decodes.
func TestOutOfRangeFrames(t *testing.T) {
	want := &HandoverCommand{RNTI: 0x46, IMSI: 208950000000001, TargetENB: 2, TargetCell: 1}
	for _, c := range rangeFrames() {
		for _, decode := range []func([]byte) (*Message, error){Decode, DecodePooled} {
			m, err := decode(c.frame)
			switch {
			case c.bad && !errors.Is(err, wire.ErrRange):
				t.Errorf("%s: decoded to %+v (err %v), want wire.ErrRange", c.name, m, err)
			case !c.bad && (err != nil || m.ENB != 7 || !reflect.DeepEqual(m.Payload, want)):
				t.Errorf("%s: %+v, %v", c.name, m, err)
			}
		}
	}
}

const (
	protoRefBegin = "<!-- protocol-reference:begin — generated, do not edit: go test ./internal/protocol -run TestProtocolReference -update -->\n"
	protoRefEnd   = "<!-- protocol-reference:end -->\n"
)

// shortType drops the package qualifier the reference has no use for, and
// calls a byte a byte.
func shortType(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "protocol.", ""), "[]uint8", "[]byte")
}

// protocolReference renders the kinds table and every field table.
func protocolReference(t *testing.T) string {
	var b strings.Builder
	b.WriteString("\n| kind | name | Fig. 7 category | codec | `Release` of a decoded payload |\n|---|---|---|---|---|\n")
	printed := map[string]bool{}
	var order []structRef
	var reach func(typ string)
	reach = func(typ string) {
		if typ == ueTableType || printed[typ] {
			return
		}
		ref, ok := refByName(typ)
		if !ok {
			t.Fatalf("%s is on the wire but not in structRefs", typ)
		}
		printed[typ] = true
		order = append(order, ref)
		for _, f := range ref.info {
			if n := f.nested(); n != "" {
				reach(n)
			}
		}
	}
	kindOf := map[string]Kind{}
	for k := KindHello; k < kindMax; k++ {
		typ := strings.TrimPrefix(fmt.Sprintf("%T", kinds[k].new()), "*")
		kindOf[typ] = k
		ref, _ := refByName(typ)
		how, keeps := "field table", "leaves it alone — "+kinds[k].why
		if ref.tuned {
			how = "hand-tuned, checked against its table"
		}
		if kinds[k].pool != nil {
			keeps = "recycles it — " + kinds[k].why
		}
		fmt.Fprintf(&b, "| %d | `%s` | %s | %s | %s |\n", k, k, k.Category(), how, keeps)
	}
	for k := KindHello; k < kindMax; k++ {
		reach(strings.TrimPrefix(fmt.Sprintf("%T", kinds[k].new()), "*"))
	}
	for _, ref := range structRefs {
		if !printed[ref.name] {
			t.Errorf("%s is in structRefs but no kind carries it", ref.name)
		}
	}
	b.WriteString("\nEvery frame is the envelope `Message`: 1 `kind` (varint, uint8), 2 `enb` (varint, lte.ENBID), 3 `sf` (varint, lte.Subframe), 4 `payload` (message, by kind), 5 `cmd_seq` (varint, omitted when 0, uint64).\n")
	for _, ref := range order {
		title := "`" + shortType(ref.name) + "`"
		if k, ok := kindOf[ref.name]; ok {
			title += fmt.Sprintf(" — kind %d `%s`", k, k)
		} else {
			title += " — nested only"
		}
		fmt.Fprintf(&b, "\n%s", title)
		if len(ref.info) == 0 {
			b.WriteString(": no fields.\n")
			continue
		}
		b.WriteString("\n\n| field | name | wire shape | Go type |\n|---|---|---|---|\n")
		for _, f := range ref.info {
			switch {
			case f.shape == "retired":
				fmt.Fprintf(&b, "| %d | ~~%s~~ | **retired**: never sent, skipped when received, never to be reused | |\n", f.num, f.name)
			case f.nested() == ueTableType:
				fmt.Fprintf(&b, "| %d | `%s` | %s | `UETable` (see \"The UE block on the wire\") |\n", f.num, f.name, f.shape)
			default:
				fmt.Fprintf(&b, "| %d | `%s` | %s | `%s` |\n", f.num, f.name, f.shape, shortType(f.goType))
			}
		}
	}
	b.WriteString("\n")
	return b.String()
}

// TestProtocolReference keeps the "Southbound protocol reference" block of
// the README equal to what the kinds table and the field tables say;
// -update rewrites it.
func TestProtocolReference(t *testing.T) {
	readme := filepath.Join("..", "..", "README.md")
	data, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(data, []byte(protoRefBegin))
	end := bytes.Index(data, []byte(protoRefEnd))
	if begin < 0 || end < begin {
		t.Fatalf("%s has no protocol-reference markers", readme)
	}
	begin += len(protoRefBegin)
	want := protocolReference(t)
	if string(data[begin:end]) == want {
		return
	}
	if !*update {
		t.Fatalf("%s: the protocol reference is out of date with the kinds and field tables (run go test ./internal/protocol -run TestProtocolReference -update)", readme)
	}
	out := append(append(append([]byte{}, data[:begin]...), want...), data[end:]...)
	if err := os.WriteFile(readme, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
