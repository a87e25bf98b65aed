package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"flexran/internal/wire"
)

// injector rebuilds a frame with one unknown field appended to one of the
// messages in it. Messages are numbered depth first, the envelope being 0:
// the payload, every nested struct in it (each element of a repeated field
// on its own) and the UE block are all levels a newer peer could extend.
type injector struct {
	target int       // the level to extend; -1 for none
	wt     wire.Type // the unknown field's wire type,
	above  int       // its number, counted from the level's largest known one,
	body   []byte    // and its bytes
	levels []string  // the Go type of every level met so far
}

// rewrite re-encodes the message b, a struct of Go type typ whose field 4
// (the envelope's payload) is a payloadTyp.
func (in *injector) rewrite(b []byte, typ, payloadTyp string) ([]byte, error) {
	mine := len(in.levels) == in.target
	in.levels = append(in.levels, typ)
	ref, _ := refByName(typ)
	var e wire.Encoder
	d := wire.NewDecoder(b)
	for {
		ok, err := d.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		child := ""
		if typ == "protocol.Message" && d.Field() == envPayload {
			child = payloadTyp
		}
		for _, f := range ref.info {
			if f.num == d.Field() && f.nested() != "" {
				child = f.nested()
			}
		}
		switch d.WireType() {
		case wire.TVarint:
			v, err := d.ReadUint()
			if err != nil {
				return nil, err
			}
			e.Uint(d.Field(), v)
		case wire.TBytes:
			sub, err := d.ReadBytes()
			if err == nil && child != "" {
				sub, err = in.rewrite(sub, child, "")
			}
			if err != nil {
				return nil, err
			}
			e.BytesField(d.Field(), sub)
		default:
			return nil, fmt.Errorf("%s field %d: no corpus frame has a fixed64", typ, d.Field())
		}
	}
	if mine {
		num := maxField(typ) + 1 + in.above
		bits := binary.LittleEndian.Uint64(append(bytes.Clone(in.body), make([]byte, 8)...))
		switch in.wt {
		case wire.TVarint:
			e.Uint(num, bits)
		case wire.TFixed64:
			e.Float(num, math.Float64frombits(bits))
		default:
			e.BytesField(num, in.body)
		}
	}
	return bytes.Clone(e.Bytes()), nil
}

// inject returns the frame of corpus payload p with the unknown field
// appended at level target, and the levels the frame has.
func (in *injector) inject(t testing.TB, p Payload) ([]byte, []string) {
	frame := Encode(New(7, 12345, p))
	in.levels = nil
	out, err := in.rewrite(frame, "protocol.Message", strings.TrimPrefix(fmt.Sprintf("%T", p), "*"))
	if err != nil {
		t.Fatalf("%v: %v", p.Kind(), err)
	}
	if in.target < 0 && !bytes.Equal(out, frame) {
		t.Fatalf("%v: rewriting the frame without an extra field changed it:\n%x\n%x", p.Kind(), frame, out)
	}
	return out, in.levels
}

// checkSkipped requires frame to decode to exactly p in the corpus envelope.
func checkSkipped(t testing.TB, what string, frame []byte, p Payload) {
	m, err := Decode(frame)
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	if m.ENB != 7 || m.SF != 12345 || !reflect.DeepEqual(m.Payload, p) {
		t.Errorf("%s: decoded to %+v %+v, want %+v", what, m, m.Payload, p)
	}
}

// TestUnknownFieldsAreSkipped is the evolvability promise of the package
// doc, held at every level of every kind: a field this build has never
// heard of — varint, fixed64 or length-delimited — appended to the payload
// or to any message nested in it leaves the decoded payload unchanged.
func TestUnknownFieldsAreSkipped(t *testing.T) {
	extended := map[string]bool{}
	for _, p := range corpusPayloads() {
		_, levels := (&injector{target: -1}).inject(t, p)
		for target, typ := range levels {
			extended[typ] = true
			for _, wt := range []wire.Type{wire.TVarint, wire.TFixed64, wire.TBytes} {
				in := &injector{target: target, wt: wt, body: []byte("a newer peer's field")}
				frame, _ := in.inject(t, p)
				checkSkipped(t, fmt.Sprintf("%v level %d (%s), unknown field of wire type %d", p.Kind(), target, typ, wt), frame, p)
			}
		}
	}
	for _, ref := range structRefs {
		if !extended[ref.name] {
			t.Errorf("no corpus frame carries a %s to extend", ref.name)
		}
	}
}

// FuzzUnknownFields lets the fuzzer choose the corpus payload, the level,
// how far above the level's known numbers the field lies, its wire type
// and its bytes: the frame with the field must decode to what the frame
// without it does.
func FuzzUnknownFields(f *testing.F) {
	payloads := corpusPayloads()
	for i := range payloads {
		f.Add(uint8(i), uint8(1), uint16(0), uint8(wire.TBytes), []byte("x"))
		f.Add(uint8(i), uint8(2), uint16(40), uint8(wire.TFixed64), []byte{})
		f.Add(uint8(i), uint8(0), uint16(1000), uint8(wire.TVarint), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	}
	f.Fuzz(func(t *testing.T, payload, level uint8, above uint16, wt uint8, body []byte) {
		p := payloads[int(payload)%len(payloads)]
		_, levels := (&injector{target: -1}).inject(t, p)
		in := &injector{target: int(level) % len(levels), wt: wire.Type(wt % 3), above: int(above), body: body}
		frame, _ := in.inject(t, p)
		checkSkipped(t, fmt.Sprintf("%v level %d, field +%d of wire type %d, %x", p.Kind(), in.target, above, in.wt, body), frame, p)
	})
}
