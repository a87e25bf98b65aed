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
// equal. MessageSize must count exactly the bytes AppendMessage writes, and
// the decoded message must clone (checkClone). Nothing may panic.
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
		if n := MessageSize(m); n != len(AppendMessage(nil, m)) {
			t.Fatalf("MessageSize = %d, AppendMessage wrote %d bytes", n, len(AppendMessage(nil, m)))
		}
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
		checkClone(t, m)
	})
}

// TestClonePooledCorpus runs checkClone over the corpus payload of every
// kind, twice, so the second clone of a pooled kind reuses a released one.
func TestClonePooledCorpus(t *testing.T) {
	for range 2 {
		for _, p := range corpusPayloads() {
			m, err := Decode(Encode(&Message{ENB: 7, SF: 12345, CmdSeq: 99, Payload: p}))
			if err != nil {
				t.Fatal(err)
			}
			checkClone(t, m)
		}
	}
}

// checkClone is the clone property for a decoded message m: ClonePooled(m)
// carries m's envelope and an equal payload, encodes to m's bytes, and
// still does once every slice of m's payload has been overwritten, so it
// shares no memory with m. m is overwritten on return. Payloads compare
// with empty slices as nil: whether a column is nil or empty is the free
// list's history, not the message (DecodePooled differs from Decode the
// same way).
func checkClone(t *testing.T, m *Message) {
	t.Helper()
	want := Encode(m)
	c := ClonePooled(m)
	defer c.Release()
	if c.ENB != m.ENB || c.SF != m.SF || c.CmdSeq != m.CmdSeq {
		t.Fatalf("clone envelope %v/%v/%v, want %v/%v/%v", c.ENB, c.SF, c.CmdSeq, m.ENB, m.SF, m.CmdSeq)
	}
	emptyAsNil(reflect.ValueOf(c.Payload))
	emptyAsNil(reflect.ValueOf(m.Payload))
	if !reflect.DeepEqual(c.Payload, m.Payload) {
		t.Fatalf("clone payload differs:\n clone %#v\noriginal %#v", c.Payload, m.Payload)
	}
	if got := Encode(c); !bytes.Equal(got, want) {
		t.Fatalf("clone encodes differently:\n got %x\nwant %x", got, want)
	}
	scribble(reflect.ValueOf(m.Payload), false)
	if got := Encode(c); !bytes.Equal(got, want) {
		t.Fatalf("clone shares memory with the original %v:\n got %x\nwant %x", m.Payload.Kind(), got, want)
	}
}

// emptyAsNil sets every empty slice reachable from v to nil.
func emptyAsNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			emptyAsNil(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			emptyAsNil(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := range v.Len() {
			emptyAsNil(v.Index(i))
		}
	}
}

// scribble changes every value stored in a slice reachable from v (inSlice:
// v is such a value, or a field of one).
func scribble(v reflect.Value, inSlice bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			scribble(v.Elem(), inSlice)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			scribble(v.Field(i), inSlice)
		}
	case reflect.Slice:
		for i := range v.Len() {
			scribble(v.Index(i), true)
		}
	case reflect.Bool:
		if inSlice {
			v.SetBool(!v.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if inSlice {
			v.SetInt(v.Int() + 1)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if inSlice {
			v.SetUint(v.Uint() + 1)
		}
	case reflect.String:
		if inSlice {
			v.SetString(v.String() + "!")
		}
	}
}
