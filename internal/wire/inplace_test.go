package wire

import (
	"bytes"
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

// TestAcquireEncoderContract pins the pooled-encoder API: a released
// encoder must come back reset, AppendMarshal must extend the destination
// exactly like Marshal, and Release must not corrupt bytes already handed
// out through AppendMarshal's return.
func TestAcquireEncoderContract(t *testing.T) {
	e := AcquireEncoder()
	e.Uint(1, 7)
	first := append([]byte(nil), e.Bytes()...)
	e.Release()

	e2 := AcquireEncoder()
	if e2.Len() != 0 {
		t.Fatalf("pooled encoder not reset: %d bytes", e2.Len())
	}
	e2.Uint(1, 7)
	if !bytes.Equal(e2.Bytes(), first) {
		t.Fatalf("reused encoder produced different bytes")
	}
	e2.Release()

	m := blob("hello wire")
	want := Marshal(m)
	dst := []byte{0xAA, 0xBB}
	out := AppendMarshal(dst, m)
	if !bytes.Equal(out[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(out[2:], want) {
		t.Fatalf("AppendMarshal: got %x, want prefix AABB + %x", out, want)
	}
}
