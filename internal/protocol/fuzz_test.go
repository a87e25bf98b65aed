package protocol

import (
	"bytes"
	"reflect"
	"testing"

	"flexran/internal/wire"
)

// TestSeedPayloadsCoverEveryKind pins the fuzz seeds (the wire corpus's
// payloads) to the kind space: adding a message kind without a populated
// payload there is a test failure.
func TestSeedPayloadsCoverEveryKind(t *testing.T) {
	seen := map[Kind]bool{}
	for _, p := range corpusPayloads() {
		seen[p.Kind()] = true
	}
	for k := KindHello; k < kindMax; k++ {
		if !seen[k] {
			t.Errorf("kind %v missing from the fuzz seed corpus", k)
		}
	}
}

// FuzzPayloadRoundTrip feeds arbitrary bytes through Decode. Inputs that
// decode must re-encode to a fixpoint: Encode(Decode(b)) decodes again and
// encodes to identical bytes (canonical form), with payloads structurally
// equal. Nothing may panic.
func FuzzPayloadRoundTrip(f *testing.F) {
	for _, p := range corpusPayloads() {
		f.Add(Encode(New(7, 12345, p)))
	}
	// Sequenced command envelope (reliable delivery): CmdSeq occupies
	// envelope field 5 and must round-trip like any other field.
	seqd := New(7, 12345, &HandoverCommand{RNTI: 0x46, IMSI: 208950000000001, TargetENB: 2})
	seqd.CmdSeq = 99
	f.Add(Encode(seqd))
	f.Add([]byte{})
	f.Add([]byte{0x08, 0xff, 0xff})
	// Every way a UE block can be malformed, as a starting point for more.
	for _, h := range hostileBlocks() {
		f.Add(h.frame)
	}
	// Values no field can hold, and fields no struct declares: one unknown
	// field of each wire type in the innermost message of every payload.
	for _, r := range rangeFrames() {
		f.Add(r.frame)
	}
	for _, p := range corpusPayloads() {
		_, levels := (&injector{target: -1}).inject(f, p)
		for _, wt := range []wire.Type{wire.TVarint, wire.TFixed64, wire.TBytes} {
			frame, _ := (&injector{target: len(levels) - 1, wt: wt, body: []byte("new")}).inject(f, p)
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejected garbage is fine; panics are not
		}
		enc1 := Encode(m)
		m2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if m2.ENB != m.ENB || m2.SF != m.SF || m2.CmdSeq != m.CmdSeq {
			t.Fatalf("envelope drifted: %+v vs %+v", m2, m)
		}
		if !reflect.DeepEqual(m2.Payload, m.Payload) {
			t.Fatalf("payload drifted:\n first %#v\nsecond %#v", m.Payload, m2.Payload)
		}
		enc2 := Encode(m2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not a fixpoint:\n first %x\nsecond %x", enc1, enc2)
		}
	})
}
