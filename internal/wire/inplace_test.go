package wire

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// blob is a marshaler producing an arbitrary-size payload, for driving the
// in-place length backpatch across varint length boundaries.
type blob []byte

func (b blob) MarshalWire(e *Encoder) {
	if len(b) > 0 {
		e.BytesField(1, b)
	}
}

// nested wraps a blob one level deeper (nested-in-nested backpatching).
type nested struct{ inner blob }

func (n nested) MarshalWire(e *Encoder) { e.Message(1, n.inner) }

// oldStyleMessage is the pre-PR3 semantics: encode the nested message in a
// fresh sub-encoder and emit it as a bytes field.
func oldStyleMessage(e *Encoder, field int, m Marshaler) {
	var sub Encoder
	m.MarshalWire(&sub)
	e.BytesField(field, sub.Bytes())
}

// TestMessageInPlaceMatchesSubEncoder pins that in-place nested encoding
// (reserve + backpatch, shifting when the length needs more than one
// varint byte) is byte-identical to the sub-encoder encoding, across the
// varint length boundaries and for nested-in-nested messages.
func TestMessageInPlaceMatchesSubEncoder(t *testing.T) {
	sizes := []int{0, 1, 100, 123, 124, 125, 126, 127, 128, 129, 1000,
		16381, 16382, 16383, 16384, 16385, 1 << 21}
	for _, n := range sizes {
		payload := make(blob, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var got, want Encoder
		got.Uint(7, 99) // nonzero prefix: backpatch must not clobber it
		want.Uint(7, 99)
		got.Message(2, payload)
		oldStyleMessage(&want, 2, payload)
		got.Uint(8, 100) // and encoding must continue cleanly after
		want.Uint(8, 100)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("size %d: in-place message differs from sub-encoder encoding", n)
		}

		var got2, want2 Encoder
		got2.Message(3, nested{inner: payload})
		oldStyleMessage(&want2, 3, nested{inner: payload})
		if !bytes.Equal(got2.Bytes(), want2.Bytes()) {
			t.Fatalf("size %d: nested-in-nested in-place message differs", n)
		}
	}
}

// TestPackedInPlace pins the in-place packed columns against encoding the
// payload in a sub-encoder and emitting it with BytesField, across the
// one-, two- and three-byte length boundaries (127/128, 16,383/16,384).
func TestPackedInPlace(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 127, 128, 1000, 16383, 16384, 20000} {
		us := make([]uint8, n) // one byte each: the payload is exactly n bytes
		ws := make([]uint64, n)
		is := make([]int32, n)
		for i := range us {
			us[i] = uint8(i % 128)
			ws[i] = uint64(i) * 997
			is[i] = int32(i%2*2-1) * int32(i)
		}
		var got, want, sub Encoder
		got.Uint(7, 99) // nonzero prefix: the backpatch must not clobber it
		want.Uint(7, 99)
		PackUints(&got, 5, us)
		PackUints(&got, 6, ws)
		PackSints(&got, 9, is)
		for _, v := range us {
			sub.Varint(uint64(v))
		}
		want.BytesField(5, sub.Bytes())
		sub.Reset()
		for _, v := range ws {
			sub.Varint(v)
		}
		want.BytesField(6, sub.Bytes())
		sub.Reset()
		for _, v := range is {
			sub.Varint(Zigzag(int64(v)))
		}
		want.BytesField(9, sub.Bytes())
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d elements: in-place packed columns differ from the sub-encoder encoding", n)
		}
	}
}

// marshalFunc is a Marshaler made of a function, for building test messages
// from encoder calls.
type marshalFunc func(*Encoder)

func (f marshalFunc) MarshalWire(e *Encoder) { f(e) }

// checkSize fails unless Size(m) counts exactly what Marshal writes, and
// AppendMarshal appends those bytes after whatever dst held.
func checkSize(t *testing.T, what string, m Marshaler) {
	t.Helper()
	want := Marshal(m)
	if got := Size(m); got != len(want) {
		t.Errorf("%s: Size = %d, Marshal wrote %d bytes", what, got, len(want))
	}
	if out := AppendMarshal([]byte{0xAA, 0xBB}, m); !bytes.Equal(out[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(out[2:], want) {
		t.Errorf("%s: AppendMarshal = %x, want prefix AABB + %x", what, out, want)
	}
}

// varintBoundaries holds 0, every 2^(7k)-1 and 2^(7k) (the last value of
// each varint length and the first of the next) and MaxUint64.
func varintBoundaries() []uint64 {
	vs := []uint64{0}
	for k := 1; k < 10; k++ {
		vs = append(vs, 1<<(7*k)-1, 1<<(7*k))
	}
	return append(vs, math.MaxUint64)
}

// TestSizeCountsWhatMarshalWrites pins the counting encoder: Size(m) is
// len(Marshal(m)) for every primitive, for nested payloads whose length
// crosses the one-, two- and three-byte varint boundaries (127/128,
// 16,383/16,384), and for packed 8-, 16-, 32- and 64-bit columns, zigzag
// ones included, whose values sit at every varint-length boundary: all in
// one column, each alone, and each beside zeros.
func TestSizeCountsWhatMarshalWrites(t *testing.T) {
	checkSize(t, "scalars", marshalFunc(func(e *Encoder) {
		e.Uint(1, 300)
		e.Int(2, -70)
		e.Bool(3, true)
		e.Float(4, 1.5)
		e.String(5, "hello wire")
		e.BytesField(6, []byte{1, 2, 3})
		e.Uint(1<<20, math.MaxUint64) // a four-byte key
		mark := e.Begin(7)
		e.Varint(127)
		e.Varint(128)
		e.End(mark)
	}))
	for _, n := range []int{0, 1, 124, 125, 126, 127, 128, 129, 16380, 16381, 16382, 16383, 16384, 16385, 1 << 21} {
		payload := make(blob, n)
		checkSize(t, fmt.Sprintf("a %d-byte nested payload", n), marshalFunc(func(e *Encoder) { e.Message(2, payload) }))
		checkSize(t, fmt.Sprintf("a %d-byte payload nested twice", n), marshalFunc(func(e *Encoder) { e.Message(3, nested{inner: payload}) }))
		checkSize(t, fmt.Sprintf("a %d-value packed column", n), marshalFunc(func(e *Encoder) { PackUints(e, 1, []uint8(payload)) }))
	}
	var columns [][]uint64
	bounds := varintBoundaries()
	columns = append(columns, bounds, nil, make([]uint64, 5))
	for _, v := range bounds {
		columns = append(columns, []uint64{v}, []uint64{0, v, v, 0})
	}
	for _, col := range columns {
		checkPacked[uint8, int8](t, col)
		checkPacked[uint16, int16](t, col)
		checkPacked[uint32, int32](t, col)
		checkPacked[uint64, int64](t, col)
		ends := make([]uint32, len(col)) // col's values, as they fit, as per-row counts
		var total uint32
		for i, v := range col {
			total += uint32(v % (1 << 28))
			ends[i] = total
		}
		checkSize(t, fmt.Sprintf("counts %v", col), marshalFunc(func(e *Encoder) { PackCounts(e, 1, ends) }))
	}
}

// checkPacked checks Size on every packed-column encoder over the values
// of col that U holds, and over the values of S whose zigzags are in col.
func checkPacked[U Uint, S Sint](t *testing.T, col []uint64) {
	t.Helper()
	var us []U
	var ss []S
	for _, v := range col {
		if uint64(U(v)) == v {
			us = append(us, U(v))
		}
		if s := Unzigzag(v); int64(S(s)) == s {
			ss = append(ss, S(s))
		}
	}
	what := fmt.Sprintf("%T %v / %T %v", us, us, ss, ss)
	checkSize(t, what, marshalFunc(func(e *Encoder) {
		PackUints(e, 1, us)
		PackNonZeroUints(e, 2, us)
		PackSints(e, 3, ss)
		PackNonZeroSints(e, 4, ss)
	}))
}
