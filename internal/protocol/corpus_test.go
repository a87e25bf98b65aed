package protocol

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexran/internal/lte"
)

var update = flag.Bool("update", false, "rewrite testdata/wire/*.hex from the current encoder")

// corpusPayloads is one fully populated payload per message kind: the frames
// committed under testdata/wire. The two UE-block carriers hold two rows,
// one of them with CQI 0 (so no subbands) and a slice group.
func corpusPayloads() []Payload {
	cells := []CellConfig{
		{Cell: 0, Bandwidth: lte.BW10MHz, Duplex: lte.FDD, TxMode: 1, Antennas: 2, Band: 5},
		{Cell: 1, Bandwidth: lte.BW5MHz, Duplex: lte.TDD, TxMode: 1, Antennas: 1, Band: 7},
	}
	ues := func() UETable {
		return UETableOf(
			UEStats{
				RNTI: 0x46, Cell: 0, CQI: 12, DLQueue: 15000, ULQueue: 200,
				DLRateKbps: 9000, ULRateKbps: 800, HARQRetx: 3, LastSchedSF: 776,
				SubbandCQI: []uint8{11, 12, 13, 12, 11, 12, 13, 12, 11, 12, 13, 12, 11},
				LCs: []LCReport{
					{LCID: 1, Bytes: 40}, {LCID: 2}, {LCID: 3, Bytes: 15000, HoLDelayMs: 13},
				},
				PowerHeadroomDB: 16, RSRPdBm: -68, RSRQdB: -8,
			},
			UEStats{
				RNTI: 0x1f2, Cell: 1, CQI: 0, DLQueue: 1 << 21,
				LCs:             []LCReport{{LCID: 3, Bytes: 1 << 21, HoLDelayMs: 1000}},
				PowerHeadroomDB: 40, RSRPdBm: -140, RSRQdB: -20, Group: 2,
			},
		)
	}
	return []Payload{
		&Hello{Version: ProtocolVersion, Epoch: 3, Config: ENBConfig{ID: 3, Cells: cells}},
		&HelloAck{Version: ProtocolVersion, MasterID: "master-0", Epoch: 3},
		&Echo{Seq: 9, SenderSF: 100, TS: 1700000000123456789},
		&EchoReply{Seq: 9, SenderSF: 101, TS: 1700000000123456789},
		&ENBConfigRequest{},
		&ENBConfigReply{Config: ENBConfig{ID: 8, Cells: cells[:1]}},
		&UEConfigRequest{},
		&UEConfigReply{UEs: []UEConfig{
			{RNTI: 0x46, Cell: 0, IMSI: 208950000000001},
			{RNTI: 0x1f2, Cell: 1, IMSI: 208950000000002},
		}},
		&StatsRequest{ID: 2, Mode: StatsPeriodic, PeriodTTI: 1, Flags: StatsAll},
		&StatsReply{ID: 2, SF: 777, UEs: ues(), Cells: []CellStats{
			{Cell: 0, UsedPRB: 42, TotalPRB: 50, ABS: true}, {Cell: 1, TotalPRB: 25},
		}},
		&SubframeTrigger{SF: 4242},
		&DLSchedule{Cell: 0, TargetSF: 800, Allocs: []Alloc{
			{RNTI: 0x46, RBStart: 0, RBCount: 25, MCS: 20},
			{RNTI: 0x1f2, RBStart: 25, RBCount: 25, MCS: 8},
		}},
		&ULSchedule{Cell: 0, TargetSF: 804, Allocs: []Alloc{{RNTI: 0x46, RBStart: 10, RBCount: 8, MCS: 12}}},
		&UEEvent{Type: UEEventAttach, RNTI: 0x48, Cell: 1},
		&VSFUpdate{Module: "mac", VSF: "dl_ue_sched", Name: "pf-v2",
			VSFKind: VSFProgram, Program: []byte{1, 2, 3}, Signature: []byte{9, 9}},
		&PolicyReconf{Doc: "mac:\n  dl_ue_sched:\n    behavior: pf-v2\n"},
		&ControlAck{OK: false, Detail: "vsf: unknown module", Seq: 42},
		&MeasReport{RNTI: 0x46, IMSI: 208950000000001, Cell: 0,
			ServingRSRPdBm: -97, ServingRSRQdB: -11,
			Neighbors: []NeighborMeas{
				{ENB: 2, Cell: 0, RSRPdBm: -91, RSRQdB: -7},
				{ENB: 3, Cell: 1, RSRPdBm: -104, RSRQdB: -15},
			}},
		&HandoverCommand{RNTI: 0x46, IMSI: 208950000000001, TargetENB: 2, TargetCell: 1},
		&HandoverComplete{RNTI: 0x52, IMSI: 208950000000001, Cell: 1, SourceENB: 1, SourceRNTI: 0x46},
		&ResyncRequest{Epoch: 7},
		&StateSnapshot{Epoch: 7, SF: 1234,
			Config: ENBConfig{ID: 3, Cells: cells},
			UEs:    ues(),
			Configs: []UEConfig{
				{RNTI: 0x46, Cell: 0, IMSI: 208950000000001},
				{RNTI: 0x1f2, Cell: 1, IMSI: 208950000000002},
			},
			Cells: []CellStats{{Cell: 0, UsedPRB: 7, TotalPRB: 50}},
			Subs: []StatsRequest{
				{ID: 1, Mode: StatsPeriodic, PeriodTTI: 1, Flags: StatsAll},
				{ID: 9, Mode: StatsTriggered, Flags: StatsCQI},
			}},
	}
}

// hexLines renders b as lowercase hex, 32 bytes to a line, so that a change
// to one field shows as a change to one or two lines of the golden file.
func hexLines(b []byte) string {
	var sb strings.Builder
	for len(b) > 0 {
		n := min(len(b), 32)
		sb.WriteString(hex.EncodeToString(b[:n]))
		sb.WriteByte('\n')
		b = b[n:]
	}
	return sb.String()
}

// TestWireCorpus pins the wire format: the canonical frame of one populated
// payload per kind (sequenced envelope, eNodeB 7, subframe 12345) must match
// testdata/wire/<kind>.hex byte for byte, and that file must decode back to
// the payload. A deliberate encoding change is `go test ./internal/protocol
// -run TestWireCorpus -update` plus a reviewed diff of the .hex files.
func TestWireCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "wire")
	seen := map[string]bool{}
	for _, p := range corpusPayloads() {
		m := New(7, 12345, p)
		m.CmdSeq = 99
		got := hexLines(Encode(m))
		name := p.Kind().String() + ".hex"
		seen[name] = true
		path := filepath.Join(dir, name)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v: %v (run with -update to create it)", p.Kind(), err)
			continue
		}
		if got != string(want) {
			t.Errorf("%v: encoding differs from %s:\n got\n%s\nwant\n%s", p.Kind(), path, got, want)
		}
		raw, err := hex.DecodeString(string(bytes.ReplaceAll(want, []byte("\n"), nil)))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		out, err := Decode(raw)
		if err != nil {
			t.Errorf("%s does not decode: %v", path, err)
			continue
		}
		if out.ENB != 7 || out.SF != 12345 || out.CmdSeq != 99 || !reflect.DeepEqual(out.Payload, p) {
			t.Errorf("%s decodes to %+v %#v, want %#v", path, out, out.Payload, p)
		}
	}
	for k := KindHello; k < kindMax; k++ {
		if !seen[k.String()+".hex"] {
			t.Errorf("kind %v has no frame in the wire corpus", k)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !seen[f.Name()] {
			t.Errorf("%s belongs to no message kind", filepath.Join(dir, f.Name()))
		}
	}
}
