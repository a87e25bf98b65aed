// Package wire implements the compact binary serialization used by the
// FlexRAN protocol. The original system serializes its control messages
// with Google Protocol Buffers; this package is a from-scratch, stdlib-only
// equivalent using the same wire-level ideas: base-128 varints, zigzag
// encoding for signed integers, and tagged fields with explicit wire types
// so unknown fields can be skipped (forward compatibility, which the paper
// calls out as a requirement for protocol evolvability).
//
// Wire format: each field is a varint key (fieldNumber<<3 | wireType)
// followed by the payload. Supported wire types are Varint, Fixed64 and
// Bytes (length-delimited), matching protobuf types 0, 1 and 2.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// Type is the wire type of an encoded field.
type Type uint8

// Wire types (numerically compatible with protobuf).
const (
	TVarint  Type = 0
	TFixed64 Type = 1
	TBytes   Type = 2
)

// Errors returned by the decoder.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrOverflow  = errors.New("wire: varint overflows 64 bits")
	ErrWireType  = errors.New("wire: unexpected wire type")
	ErrRange     = errors.New("wire: packed value out of range for its column")
	ErrTrailing  = errors.New("wire: trailing bytes after the last packed value")
)

// MaxFieldNumber is the largest supported field number.
const MaxFieldNumber = 1 << 28

// AppendUvarint appends v in base-128 varint encoding.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// Zigzag encodes a signed integer so small magnitudes stay small.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag reverses Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Marshaler is implemented by protocol messages that can encode themselves.
type Marshaler interface {
	MarshalWire(e *Encoder)
}

// Unmarshaler is implemented by protocol messages that can decode
// themselves from a field stream.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder) error
}

// Encoder builds an encoded message by appending tagged fields.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder whose buffer has the given capacity hint.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded message. The returned slice aliases the
// encoder's buffer and is valid until the next append.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded size in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse, retaining the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

func (e *Encoder) key(field int, t Type) {
	e.buf = AppendUvarint(e.buf, uint64(field)<<3|uint64(t))
}

// Uint encodes an unsigned integer field as a varint.
func (e *Encoder) Uint(field int, v uint64) {
	e.key(field, TVarint)
	e.buf = AppendUvarint(e.buf, v)
}

// Int encodes a signed integer field with zigzag varint encoding.
func (e *Encoder) Int(field int, v int64) {
	e.key(field, TVarint)
	e.buf = AppendUvarint(e.buf, Zigzag(v))
}

// Bool encodes a boolean field (as varint 0/1).
func (e *Encoder) Bool(field int, v bool) {
	var u uint64
	if v {
		u = 1
	}
	e.Uint(field, u)
}

// Float encodes a float64 field as fixed64 (IEEE 754 bits, little endian).
func (e *Encoder) Float(field int, v float64) {
	e.key(field, TFixed64)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bytes64 encodes raw bytes as a length-delimited field.
func (e *Encoder) BytesField(field int, b []byte) {
	e.key(field, TBytes)
	e.buf = AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String encodes a string as a length-delimited field.
func (e *Encoder) String(field int, s string) {
	e.key(field, TBytes)
	e.buf = AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Begin opens a length-delimited field for in-place encoding: it writes
// the key, reserves a one-byte length slot and returns the offset of the
// first payload byte, which End needs to backpatch the real length. Between
// the two the caller appends the payload — a nested message's fields, or
// the bare values of a packed repeated column (Varint).
func (e *Encoder) Begin(field int) int {
	e.key(field, TBytes)
	e.buf = append(e.buf, 0)
	return len(e.buf)
}

// End closes a length-delimited field opened by Begin. The common case
// (payload < 128 bytes) patches the reserved byte in place; longer payloads
// shift the tail right to make room for the multi-byte varint. Either way
// the bytes produced are identical to encoding the payload separately and
// copying it in — without the sub-buffer.
func (e *Encoder) End(start int) {
	n := len(e.buf) - start
	if n < 0x80 {
		e.buf[start-1] = byte(n)
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(tmp[:], uint64(n))
	e.buf = append(e.buf, tmp[:w-1]...) // grow by the extra length bytes
	copy(e.buf[start+w-1:], e.buf[start:start+n])
	copy(e.buf[start-1:], tmp[:w])
}

// Message encodes a nested message as a length-delimited field. The nested
// message is encoded directly into this encoder's buffer (no sub-encoder
// allocation); the length prefix is backpatched afterwards.
func (e *Encoder) Message(field int, m Marshaler) {
	start := e.Begin(field)
	m.MarshalWire(e)
	e.End(start)
}

// Varint appends a bare varint (no key) to the open field.
func (e *Encoder) Varint(v uint64) {
	if v < 0x80 {
		e.buf = append(e.buf, byte(v))
		return
	}
	e.buf = AppendUvarint(e.buf, v)
}

// Uint constrains the element types of a packed unsigned column.
type Uint interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Sint constrains the element types of a packed zigzag column.
type Sint interface {
	~int8 | ~int16 | ~int32 | ~int64
}

// PackUints encodes vs as one packed repeated varint field. The column's
// worst case is reserved once and the varints are written by index, with
// no append per byte.
func PackUints[T Uint](e *Encoder, field int, vs []T) {
	mark := e.Begin(field)
	b, n := e.reserve(len(vs) * maxVarintLen[T]())
	for _, v := range vs {
		n = putVarint(b, n, uint64(v))
	}
	e.buf = b[:n]
	e.End(mark)
}

// PackSints encodes vs as one packed repeated zigzag varint field, like
// PackUints.
func PackSints[T Sint](e *Encoder, field int, vs []T) {
	mark := e.Begin(field)
	b, n := e.reserve(len(vs) * maxVarintLen[T]())
	for _, v := range vs {
		n = putVarint(b, n, Zigzag(int64(v)))
	}
	e.buf = b[:n]
	e.End(mark)
}

// reserve grows the buffer to hold n more bytes and returns it extended to
// its capacity, with the offset of the first free byte.
func (e *Encoder) reserve(n int) ([]byte, int) {
	b := slices.Grow(e.buf, n)
	return b[:cap(b)], len(b)
}

// maxVarintLen is the longest varint a value of T encodes to (its zigzag,
// for a signed T): 2, 3, 5 or 10 bytes for 8, 16, 32 or 64 bits.
func maxVarintLen[T Uint | Sint]() int {
	var v T
	return (8*int(unsafe.Sizeof(v)) + 6) / 7
}

// putVarint writes v at b[n:] and returns the offset after it. A value
// below 2^14 is stored as two bytes with the length picked without a
// branch, so b[n:] must hold v's varint and at least two bytes — which a
// column reserved at two or more bytes per value always does.
func putVarint(b []byte, n int, v uint64) int {
	if v < 1<<14 {
		more := (v + 1<<14 - 0x80) >> 14 // 1 from 0x80 up, else 0
		b[n], b[n+1] = byte(v)|byte(more<<7), byte(v>>7)
		return n + 1 + int(more)
	}
	for v >= 0x80 {
		b[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	b[n] = byte(v)
	return n + 1
}

// UnpackUints decodes the payload of a packed varint field into dst: b must
// hold exactly len(dst) varints, each within T's range, and nothing else.
// dst is caller-owned, so the unpack allocates nothing and its size is never
// taken from the input.
func UnpackUints[T Uint](b []byte, dst []T) error { return unpack(b, dst, false) }

// UnpackSints is UnpackUints for a zigzag column.
func UnpackSints[T Sint](b []byte, dst []T) error { return unpack(b, dst, true) }

// Masks over eight varint bytes loaded little-endian: their continuation
// bits, and their low bits (a zigzag value's sign).
const (
	contBits8 = 0x8080808080808080
	lowBits8  = 0x0101010101010101
)

// unpack is UnpackUints and UnpackSints. Where eight values remain and the
// next eight bytes carry no continuation bit, one load decodes all eight:
// each is a one-byte value below 0x80, in range for every column type, and
// its zigzag, in [-64, 63], fits even an int8. Anywhere else the values are
// decoded one at a time — inline up to three bytes — until the eight bytes
// that failed the test are consumed, so the bytes accepted and the error
// returned are those of a value-by-value decode.
func unpack[T Uint | Sint](b []byte, dst []T, zigzag bool) error {
	pos := 0
	for i := 0; i < len(dst); {
		stop := len(b)
		if len(dst)-i >= 8 && len(b)-pos >= 8 {
			x := binary.LittleEndian.Uint64(b[pos:])
			if x&contBits8 == 0 {
				if zigzag { // per byte: u>>1 ^ -(u&1), as an int8
					x = (x >> 1 & 0x7f7f7f7f7f7f7f7f) ^ (x & lowBits8 * 0xff)
				}
				d := dst[i : i+8 : i+8]
				d[0], d[1], d[2], d[3] = T(int8(x)), T(int8(x>>8)), T(int8(x>>16)), T(int8(x>>24))
				d[4], d[5], d[6], d[7] = T(int8(x>>32)), T(int8(x>>40)), T(int8(x>>48)), T(int8(x>>56))
				i, pos = i+8, pos+8
				continue
			}
			stop = pos + 8
		}
		for {
			if pos >= len(b) {
				return ErrTruncated
			}
			v := uint64(b[pos])
			switch {
			case v < 0x80:
				pos++
			case pos+1 < len(b) && b[pos+1] < 0x80:
				v = v&0x7f | uint64(b[pos+1])<<7
				pos += 2
			case pos+2 < len(b) && b[pos+2] < 0x80:
				v = v&0x7f | uint64(b[pos+1]&0x7f)<<7 | uint64(b[pos+2])<<14
				pos += 3
			default:
				var n int
				if v, n = binary.Uvarint(b[pos:]); n <= 0 {
					return varintErr(n)
				}
				pos += n
			}
			if zigzag {
				s := Unzigzag(v)
				if int64(T(s)) != s {
					return ErrRange
				}
				dst[i] = T(s)
			} else {
				if uint64(T(v)) != v {
					return ErrRange
				}
				dst[i] = T(v)
			}
			if i++; i == len(dst) || pos >= stop {
				break
			}
		}
	}
	if pos != len(b) {
		return ErrTrailing
	}
	return nil
}

// varintErr maps binary.Uvarint's failure count to the decoder's errors.
func varintErr(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return ErrOverflow
}

// Decoder reads tagged fields from an encoded message.
type Decoder struct {
	buf []byte
	pos int

	field int
	typ   Type
}

// NewDecoder returns a decoder over b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Next advances to the next field, returning false at end of message.
// After a true return, Field and WireType describe the pending field, which
// must be consumed by exactly one Read* or Skip call.
func (d *Decoder) Next() (bool, error) {
	if d.pos >= len(d.buf) {
		return false, nil
	}
	key, err := d.uvarint()
	if err != nil {
		return false, err
	}
	d.field = int(key >> 3)
	d.typ = Type(key & 7)
	if d.field <= 0 || d.field > MaxFieldNumber {
		return false, fmt.Errorf("wire: invalid field number %d", d.field)
	}
	switch d.typ {
	case TVarint, TFixed64, TBytes:
		return true, nil
	default:
		return false, fmt.Errorf("%w: %d", ErrWireType, d.typ)
	}
}

// Remaining returns the bytes of the message not yet consumed. A decoder
// that sizes anything from a count it read bounds the count by this first.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Field returns the field number of the pending field.
func (d *Decoder) Field() int { return d.field }

// WireType returns the wire type of the pending field.
func (d *Decoder) WireType() Type { return d.typ }

func (d *Decoder) uvarint() (uint64, error) {
	// Keys, lengths and most values fit one byte.
	if d.pos < len(d.buf) && d.buf[d.pos] < 0x80 {
		d.pos++
		return uint64(d.buf[d.pos-1]), nil
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	d.pos += n
	return v, nil
}

// ReadUint consumes the pending varint field.
func (d *Decoder) ReadUint() (uint64, error) {
	if d.typ != TVarint {
		return 0, ErrWireType
	}
	return d.uvarint()
}

// ReadInt consumes the pending zigzag varint field.
func (d *Decoder) ReadInt() (int64, error) {
	u, err := d.ReadUint()
	return Unzigzag(u), err
}

// ReadBool consumes the pending varint field as a boolean.
func (d *Decoder) ReadBool() (bool, error) {
	u, err := d.ReadUint()
	return u != 0, err
}

// ReadFloat consumes the pending fixed64 field as a float64.
func (d *Decoder) ReadFloat() (float64, error) {
	if d.typ != TFixed64 {
		return 0, ErrWireType
	}
	if d.pos+8 > len(d.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(v), nil
}

// ReadBytes consumes the pending length-delimited field. The returned slice
// aliases the decoder's buffer.
func (d *Decoder) ReadBytes() ([]byte, error) {
	if d.typ != TBytes {
		return nil, ErrWireType
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, ErrTruncated
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// ReadString consumes the pending length-delimited field as a string.
func (d *Decoder) ReadString() (string, error) {
	b, err := d.ReadBytes()
	return string(b), err
}

// ReadMessage consumes the pending length-delimited field and decodes it
// into m. The nested decode runs on this decoder with its state saved and
// restored around the call (no sub-decoder allocation); recursion nests
// naturally, each level holding its saved state on its own stack frame.
func (d *Decoder) ReadMessage(m Unmarshaler) error {
	b, err := d.ReadBytes()
	if err != nil {
		return err
	}
	saved := *d
	d.buf, d.pos = b, 0
	err = m.UnmarshalWire(d)
	*d = saved
	return err
}

// Skip consumes the pending field without interpreting it. This is how
// receivers tolerate protocol extensions they do not know about.
func (d *Decoder) Skip() error {
	switch d.typ {
	case TVarint:
		_, err := d.uvarint()
		return err
	case TFixed64:
		if d.pos+8 > len(d.buf) {
			return ErrTruncated
		}
		d.pos += 8
		return nil
	case TBytes:
		_, err := d.ReadBytes()
		return err
	}
	return ErrWireType
}

// encoderPool recycles Encoders (and their buffers) across Marshal and
// AppendMarshal calls, so steady-state encoding costs no allocation.
var encoderPool = sync.Pool{New: func() interface{} { return new(Encoder) }}

// AcquireEncoder returns a pooled encoder, reset and ready to append.
// Callers must Release it (after copying out Bytes, which alias the
// encoder's buffer) to keep the fast path allocation-free.
func AcquireEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// Release returns the encoder (buffer included) to the pool. The slice
// previously returned by Bytes must no longer be referenced.
func (e *Encoder) Release() {
	e.Reset()
	encoderPool.Put(e)
}

// AppendMarshal encodes m onto dst and returns the extended slice. The
// encoding runs through a pooled encoder that adopts dst as its buffer, so
// a caller reusing dst's capacity pays zero allocations at steady state.
func AppendMarshal(dst []byte, m Marshaler) []byte {
	e := encoderPool.Get().(*Encoder)
	e.buf = dst
	m.MarshalWire(e)
	out := e.buf
	e.buf = nil
	encoderPool.Put(e)
	return out
}

// Marshal encodes a message into a fresh byte slice.
func Marshal(m Marshaler) []byte { return AppendMarshal(nil, m) }

// decoderPool recycles top-level Decoders so steady-state Unmarshal calls
// allocate nothing (nested messages reuse the same decoder — see
// ReadMessage).
var decoderPool = sync.Pool{New: func() interface{} { return new(Decoder) }}

// Unmarshal decodes b into m.
func Unmarshal(b []byte, m Unmarshaler) error {
	d := decoderPool.Get().(*Decoder)
	*d = Decoder{buf: b}
	err := m.UnmarshalWire(d)
	d.buf = nil // do not pin the caller's bytes in the pool
	decoderPool.Put(d)
	return err
}
