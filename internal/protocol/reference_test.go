package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexran/internal/wire"
)

// codec is a message struct seen through its own methods.
type codec interface {
	wire.Marshaler
	wire.Unmarshaler
}

// structRef is one message struct of the package, type-erased: what its
// field table says, and a zero value to decode into.
type structRef struct {
	name string // Go type, "protocol.Hello"
	info []fieldInfo
	new  func() codec
}

func refOf[T any, P message[T]](fs *fields[T]) structRef {
	r := structRef{name: fmt.Sprintf("%T", *new(T)), new: func() codec { return P(new(T)) }}
	for _, f := range fs.list {
		r.info = append(r.info, f.fieldInfo)
	}
	return r
}

// refAs is r for the struct T, which travels through r's table.
func refAs[T any, P message[T]](r structRef) structRef {
	r.name, r.new = fmt.Sprintf("%T", *new(T)), func() codec { return P(new(T)) }
	return r
}

// structRefs lists every field table: every struct with a wire form but
// the envelope, which is written by hand, and the UE block (blockRef).
// TestProtocolReference walks it from the kinds table and fails on a struct
// that is reachable and missing.
var structRefs = []structRef{
	refOf(helloFields), refOf(helloAckFields),
	refOf(echoFields), refOf(echoReplyFields),
	refOf(enbConfigRequestFields), refOf(enbConfigReplyFields),
	refOf(ueConfigRequestFields), refOf(ueConfigReplyFields),
	refOf(statsRequestFields), refOf(statsReplyFields),
	refOf(subframeTriggerFields), refOf(dlScheduleFields), refAs[ULSchedule](refOf(dlScheduleFields)),
	refOf(ueEventFields), refOf(vsfUpdateFields),
	refOf(policyReconfFields), refOf(controlAckFields),
	refOf(measReportFields), refOf(handoverCommandFields),
	refOf(handoverCompleteFields), refOf(resyncRequestFields),
	refOf(stateSnapshotFields),
	// nested only
	refOf(enbConfigFields), refOf(cellConfigFields), refOf(ueConfigFields),
	refOf(cellStatsFields), refOf(allocFields), refOf(neighborMeasFields),
}

// blockRef is the UE block, declared by its column list. Its fields are
// columns and a row count, not the scalars TestScalarsNeverTruncate probes
// in structRefs.
var blockRef = func() structRef {
	r := structRef{name: "protocol.UETable", new: func() codec { return new(UETable) }}
	for _, c := range ueColumns {
		r.info = append(r.info, c.fieldInfo)
	}
	return r
}()

// refByName finds a struct's entry by Go type name.
func refByName(name string) (structRef, bool) {
	for _, r := range append(structRefs[:len(structRefs):len(structRefs)], blockRef) {
		if r.name == name {
			return r, true
		}
	}
	return structRef{}, false
}

// nested returns the Go type of the message a field carries, "" for a
// field that is not a message.
func (f fieldInfo) nested() string {
	if strings.HasPrefix(f.shape, "message") {
		return strings.TrimPrefix(f.goType, "[]")
	}
	return ""
}

// maxField is the largest number a struct declares, retired ones included.
func maxField(typ string) int {
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

// TestScalarsNeverTruncate: whatever varint a peer puts in a scalar field,
// the struct either decodes to exactly that value or refuses the message
// with wire.ErrRange — for every field of every struct. (A bool reads any
// non-zero varint as true.)
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
		if printed[typ] {
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
		keeps := "leaves it alone — " + kinds[k].why
		if kinds[k].pool != nil {
			keeps = "recycles it — " + kinds[k].why
		}
		fmt.Fprintf(&b, "| %d | `%s` | %s | field table | %s |\n", k, k, k.Category(), keeps)
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
			case f.goType == "":
				fmt.Fprintf(&b, "| %d | `%s` | %s | |\n", f.num, f.name, f.shape)
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
