package wire

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return Unzigzag(Zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Small magnitudes should encode small.
	if Zigzag(0) != 0 || Zigzag(-1) != 1 || Zigzag(1) != 2 || Zigzag(-2) != 3 {
		t.Error("zigzag ordering wrong")
	}
}

func decodeAll(t *testing.T, b []byte) map[int]interface{} {
	t.Helper()
	d := NewDecoder(b)
	out := map[int]interface{}{}
	for {
		ok, err := d.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		switch d.WireType() {
		case TVarint:
			v, err := d.ReadUint()
			if err != nil {
				t.Fatalf("ReadUint: %v", err)
			}
			out[d.Field()] = v
		case TFixed64:
			v, err := d.ReadFloat()
			if err != nil {
				t.Fatalf("ReadFloat: %v", err)
			}
			out[d.Field()] = v
		case TBytes:
			v, err := d.ReadBytes()
			if err != nil {
				t.Fatalf("ReadBytes: %v", err)
			}
			out[d.Field()] = append([]byte(nil), v...)
		}
	}
}

func TestEncodeDecodeScalars(t *testing.T) {
	var e Encoder
	e.Uint(1, 300)
	e.Int(2, -77)
	e.Bool(3, true)
	e.Float(4, 3.5)
	e.String(5, "hello")
	e.BytesField(6, []byte{1, 2, 3})

	d := NewDecoder(e.Bytes())
	expect := []struct {
		field int
		check func() error
	}{
		{1, func() error {
			v, err := d.ReadUint()
			if err != nil || v != 300 {
				return errf("uint %v %v", v, err)
			}
			return nil
		}},
		{2, func() error {
			v, err := d.ReadInt()
			if err != nil || v != -77 {
				return errf("int %v %v", v, err)
			}
			return nil
		}},
		{3, func() error {
			v, err := d.ReadBool()
			if err != nil || !v {
				return errf("bool %v %v", v, err)
			}
			return nil
		}},
		{4, func() error {
			v, err := d.ReadFloat()
			if err != nil || v != 3.5 {
				return errf("float %v %v", v, err)
			}
			return nil
		}},
		{5, func() error {
			v, err := d.ReadString()
			if err != nil || v != "hello" {
				return errf("string %v %v", v, err)
			}
			return nil
		}},
		{6, func() error {
			v, err := d.ReadBytes()
			if err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
				return errf("bytes %v %v", v, err)
			}
			return nil
		}},
	}
	for _, ex := range expect {
		ok, err := d.Next()
		if err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
		if d.Field() != ex.field {
			t.Fatalf("Field = %d, want %d", d.Field(), ex.field)
		}
		if err := ex.check(); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := d.Next()
	if ok || err != nil {
		t.Fatalf("expected clean end, ok=%v err=%v", ok, err)
	}
}

func errf(format string, args ...interface{}) error {
	return errors.New("unexpected: " + format)
}

type pair struct {
	A uint64
	B string
}

func (p *pair) MarshalWire(e *Encoder) {
	e.Uint(1, p.A)
	e.String(2, p.B)
}

func (p *pair) UnmarshalWire(d *Decoder) error {
	for {
		ok, err := d.Next()
		if err != nil || !ok {
			return err
		}
		switch d.Field() {
		case 1:
			if p.A, err = d.ReadUint(); err != nil {
				return err
			}
		case 2:
			if p.B, err = d.ReadString(); err != nil {
				return err
			}
		default:
			if err := d.Skip(); err != nil {
				return err
			}
		}
	}
}

func TestNestedMessage(t *testing.T) {
	var e Encoder
	in := &pair{A: 42, B: "nested"}
	e.Message(7, in)
	e.Uint(8, 9)

	d := NewDecoder(e.Bytes())
	ok, err := d.Next()
	if !ok || err != nil {
		t.Fatal(err)
	}
	var out pair
	if err := d.ReadMessage(&out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Errorf("round trip = %+v, want %+v", out, *in)
	}
	ok, _ = d.Next()
	if !ok || d.Field() != 8 {
		t.Error("trailing field lost after nested message")
	}
}

func TestMarshalUnmarshalHelpers(t *testing.T) {
	in := &pair{A: 7, B: "x"}
	b := Marshal(in)
	var out pair
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Errorf("got %+v", out)
	}
}

// packed returns a copy of the payload of the single packed field in e.
func packed(t *testing.T, e *Encoder) []byte {
	t.Helper()
	d := NewDecoder(e.Bytes())
	if ok, err := d.Next(); !ok || err != nil {
		t.Fatal(ok, err)
	}
	b, err := d.ReadBytes()
	if err != nil || d.Remaining() != 0 {
		t.Fatal(err, d.Remaining())
	}
	return bytes.Clone(b)
}

func TestPackedUints(t *testing.T) {
	var e Encoder
	want := []uint64{0, 1, 127, 128, 1 << 40, math.MaxUint64}
	PackUints(&e, 3, want)
	b := packed(t, &e)
	got := make([]uint64, len(want))
	if err := UnpackUints(b, got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}

	e.Reset()
	swant := []int32{0, -1, 1, -64, 64, math.MinInt32, math.MaxInt32}
	PackSints(&e, 4, swant)
	sb := packed(t, &e)
	sgot := make([]int32, len(swant))
	if err := UnpackSints(sb, sgot); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sgot, swant) {
		t.Errorf("got %v, want %v", sgot, swant)
	}

	// Exactly len(dst) values: one short, one long, out of range for the
	// column's type, truncated and overlong varints are all errors.
	over := bytes.Repeat([]byte{0xff}, 10)
	over = append(over, 0x01)
	for _, c := range []struct {
		name string
		err  error
		want error
	}{
		{"one short", UnpackUints(b, make([]uint64, len(want)+1)), ErrTruncated},
		{"one long", UnpackUints(b, make([]uint64, len(want)-1)), ErrTrailing},
		{"uint8 range", UnpackUints([]byte{0x80, 0x02}, make([]uint8, 1)), ErrRange},
		{"uint16 range", UnpackUints([]byte{0x80, 0x80, 0x04}, make([]uint16, 1)), ErrRange},
		{"uint32 range", UnpackUints([]byte{0x80, 0x80, 0x80, 0x80, 0x10}, make([]uint32, 1)), ErrRange},
		{"int32 range", UnpackSints([]byte{0x80, 0x80, 0x80, 0x80, 0x20}, make([]int32, 1)), ErrRange},
		{"truncated varint", UnpackUints([]byte{0x01, 0x80}, make([]uint64, 2)), ErrTruncated},
		{"11-byte varint", UnpackUints(over, make([]uint64, 1)), ErrOverflow},
		{"11-byte zigzag", UnpackSints(over, make([]int64, 1)), ErrOverflow},
		{"short zigzag", UnpackSints(nil, make([]int32, 1)), ErrTruncated},
		{"long zigzag", UnpackSints([]byte{0, 0}, make([]int32, 1)), ErrTrailing},
	} {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, c.err, c.want)
		}
	}
	if err := UnpackUints(nil, []uint16(nil)); err != nil {
		t.Errorf("empty column: %v", err)
	}
}

func TestSkipUnknownFields(t *testing.T) {
	// Simulate a newer sender: extra fields must be skippable by type.
	var e Encoder
	e.Uint(1, 5)
	e.Float(99, 2.5)          // unknown fixed64
	e.String(100, "whatever") // unknown bytes
	e.Uint(101, 3)            // unknown varint
	e.String(2, "keep")

	var p pair
	if err := Unmarshal(e.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.A != 5 || p.B != "keep" {
		t.Errorf("got %+v", p)
	}
}

func TestTruncatedInputs(t *testing.T) {
	var e Encoder
	e.String(1, "hello world")
	e.Float(2, 1.25)
	full := e.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for i := 0; i < len(full); i++ {
		var p pair
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on prefix %d: %v", i, r)
				}
			}()
			_ = Unmarshal(full[:i], &p) // error or clean EOF both acceptable
		}()
	}
	// A declared length longer than the buffer must error.
	bad := []byte{0x0a, 0xff, 0x01} // field 1, bytes, len 255, no payload
	d := NewDecoder(bad)
	ok, err := d.Next()
	if !ok || err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadBytes(); !errors.Is(err, ErrTruncated) {
		t.Errorf("want ErrTruncated, got %v", err)
	}
}

func TestWireTypeMismatch(t *testing.T) {
	var e Encoder
	e.Uint(1, 9)
	d := NewDecoder(e.Bytes())
	ok, err := d.Next()
	if !ok || err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadBytes(); !errors.Is(err, ErrWireType) {
		t.Errorf("ReadBytes on varint: want ErrWireType, got %v", err)
	}
}

func TestInvalidFieldNumber(t *testing.T) {
	// key with field number 0 is invalid.
	d := NewDecoder([]byte{0x00})
	if _, err := d.Next(); err == nil {
		t.Error("field 0 should be rejected")
	}
}

func TestFloatSpecials(t *testing.T) {
	var e Encoder
	e.Float(1, math.Inf(1))
	e.Float(2, math.NaN())
	d := NewDecoder(e.Bytes())
	d.Next()
	v, _ := d.ReadFloat()
	if !math.IsInf(v, 1) {
		t.Error("inf lost")
	}
	d.Next()
	v, _ = d.ReadFloat()
	if !math.IsNaN(v) {
		t.Error("nan lost")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(64)
	e.Uint(1, 1)
	if e.Len() == 0 {
		t.Fatal("expected bytes")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Error("Reset should clear")
	}
}

func TestPropertyRoundTripPairs(t *testing.T) {
	f := func(a uint64, b string) bool {
		in := &pair{A: a, B: b}
		var out pair
		if err := Unmarshal(Marshal(in), &out); err != nil {
			return false
		}
		return out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecoderNeverPanicsOnGarbage(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		d := NewDecoder(b)
		for {
			more, err := d.Next()
			if err != nil || !more {
				return true
			}
			if err := d.Skip(); err != nil {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
