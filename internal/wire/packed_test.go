package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The packed-column codec as it was before values were decoded eight to a
// load and columns were reserved once: one append per byte on the way out,
// one varint at a time on the way in. TestPackedColumnsMatchReference and
// FuzzPackedColumns hold the codec to these, byte for byte and error for
// error.

func refPackUints[T Uint](e *Encoder, field int, vs []T) {
	mark := e.Begin(field)
	for _, v := range vs {
		e.Varint(uint64(v))
	}
	e.End(mark)
}

func refPackSints[T Sint](e *Encoder, field int, vs []T) {
	mark := e.Begin(field)
	for _, v := range vs {
		e.Varint(Zigzag(int64(v)))
	}
	e.End(mark)
}

func refUnpackUints[T Uint](b []byte, dst []T) error {
	limit := uint64(^T(0))
	pos := 0
	for i := range dst {
		if pos >= len(b) {
			return ErrTruncated
		}
		v := uint64(b[pos])
		if v < 0x80 {
			pos++
		} else {
			var n int
			if v, n = binary.Uvarint(b[pos:]); n <= 0 {
				return varintErr(n)
			}
			pos += n
		}
		if v > limit {
			return ErrRange
		}
		dst[i] = T(v)
	}
	if pos != len(b) {
		return ErrTrailing
	}
	return nil
}

func refUnpackSints[T Sint](b []byte, dst []T) error {
	pos := 0
	for i := range dst {
		if pos >= len(b) {
			return ErrTruncated
		}
		u, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return varintErr(n)
		}
		pos += n
		v := Unzigzag(u)
		if int64(T(v)) != v {
			return ErrRange
		}
		dst[i] = T(v)
	}
	if pos != len(b) {
		return ErrTrailing
	}
	return nil
}

// columnChecker compares the codec with the reference on one column type;
// each method fails tb on the first difference.
type columnChecker interface {
	// unpack decodes b into n values both ways (dst prefilled with a
	// marker, so a value written only by one side shows).
	unpack(tb testing.TB, b []byte, n int)
	// pack encodes raw, each value cast to the column type, both ways.
	pack(tb testing.TB, raw []uint64)
}

type uintColumn[T Uint] struct{ name string }

func (c uintColumn[T]) unpack(tb testing.TB, b []byte, n int) {
	tb.Helper()
	got, want := slices.Repeat([]T{0x5a}, n), slices.Repeat([]T{0x5a}, n)
	gerr, werr := UnpackUints(b, got), refUnpackUints(b, want)
	if gerr != werr || !slices.Equal(got, want) {
		tb.Fatalf("%s: UnpackUints(%x, %d values) = %v, %v; reference %v, %v", c.name, b, n, got, gerr, want, werr)
	}
}

func (c uintColumn[T]) pack(tb testing.TB, raw []uint64) {
	tb.Helper()
	vs := make([]T, len(raw))
	for i, v := range raw {
		vs[i] = T(v)
	}
	var got, want Encoder
	got.Uint(1, 300) // a prefix the length back-patch must not touch
	want.Uint(1, 300)
	PackUints(&got, 5, vs)
	refPackUints(&want, 5, vs)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		tb.Fatalf("%s: PackUints(%v) = %x, reference %x", c.name, vs, got.Bytes(), want.Bytes())
	}
}

type sintColumn[T Sint] struct{ name string }

func (c sintColumn[T]) unpack(tb testing.TB, b []byte, n int) {
	tb.Helper()
	got, want := slices.Repeat([]T{0x5a}, n), slices.Repeat([]T{0x5a}, n)
	gerr, werr := UnpackSints(b, got), refUnpackSints(b, want)
	if gerr != werr || !slices.Equal(got, want) {
		tb.Fatalf("%s: UnpackSints(%x, %d values) = %v, %v; reference %v, %v", c.name, b, n, got, gerr, want, werr)
	}
}

func (c sintColumn[T]) pack(tb testing.TB, raw []uint64) {
	tb.Helper()
	vs := make([]T, len(raw))
	for i, v := range raw {
		vs[i] = T(Unzigzag(v)) // small raw values stay small magnitudes
	}
	var got, want Encoder
	got.Uint(1, 300)
	want.Uint(1, 300)
	PackSints(&got, 5, vs)
	refPackSints(&want, 5, vs)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		tb.Fatalf("%s: PackSints(%v) = %x, reference %x", c.name, vs, got.Bytes(), want.Bytes())
	}
}

var columnCheckers = []columnChecker{
	uintColumn[uint8]{"uint8"}, uintColumn[uint16]{"uint16"},
	uintColumn[uint32]{"uint32"}, uintColumn[uint64]{"uint64"},
	sintColumn[int8]{"int8"}, sintColumn[int16]{"int16"},
	sintColumn[int32]{"int32"}, sintColumn[int64]{"int64"},
}

// checkColumn runs b as a column of n, n-1 and n+1 values and raw through
// both packers, on every column type.
func checkColumn(tb testing.TB, b []byte, n int, raw []uint64) {
	tb.Helper()
	for _, c := range columnCheckers {
		for _, m := range []int{n, n - 1, n + 1} {
			if m >= 0 {
				c.unpack(tb, b, m)
			}
		}
		c.pack(tb, raw)
	}
}

// randomRaw draws n varint values, most of them one byte long, the rest of
// a random width up to 64 bits.
func randomRaw(rnd *rand.Rand, n int) []uint64 {
	raw := make([]uint64, n)
	for i := range raw {
		switch rnd.Intn(4) {
		case 0:
			raw[i] = rnd.Uint64() >> rnd.Intn(64)
		default:
			raw[i] = uint64(rnd.Intn(0x80))
		}
	}
	return raw
}

func appendRaw(b []byte, raw []uint64) []byte {
	for _, v := range raw {
		b = AppendUvarint(b, v)
	}
	return b
}

// TestPackedColumnsMatchReference drives the packed codec and its reference
// over seeded columns of every element type: every length 0–40, a
// multi-byte varint at every position of an eight-byte group, truncation at
// every byte, trailing bytes, values out of range for each type, and the
// 10- and 11-byte varints at the overflow edge. Packers must produce the
// same bytes, unpackers the same values and the same error.
func TestPackedColumnsMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	for n := 0; n <= 40; n++ {
		for rep := 0; rep < 20; rep++ {
			raw := randomRaw(rnd, n)
			b := appendRaw(nil, raw)
			checkColumn(t, b, n, raw)
			for cut := 0; cut < len(b); cut++ {
				checkColumn(t, b[:cut], n, nil)
			}
			checkColumn(t, append(slices.Clip(b), 0x01), n, raw)
			checkColumn(t, append(slices.Clip(b), 0x80), n, raw)
		}
	}
	// One wide value, everywhere in and around the groups of eight.
	for _, wide := range []uint64{0x80, 0x3fff, 0x4000, 0x1fffff, 0x200000, 1 << 35, math.MaxUint64} {
		for n := 8; n <= 24; n += 8 {
			for at := 0; at < n; at++ {
				raw := make([]uint64, n)
				for i := range raw {
					raw[i] = uint64(i*37) & 0x7f
				}
				raw[at] = wide
				checkColumn(t, appendRaw(nil, raw), n, raw)
			}
		}
	}
	// Just past each column type's range, as the only and as a late value.
	for _, v := range []uint64{
		0xff, 0x100, 0xffff, 0x10000, 0xffffffff, 0x100000000,
		Zigzag(math.MinInt8 - 1), Zigzag(math.MaxInt8 + 1),
		Zigzag(math.MinInt16 - 1), Zigzag(math.MaxInt16 + 1),
		Zigzag(math.MinInt32 - 1), Zigzag(math.MaxInt32 + 1),
	} {
		for _, n := range []int{1, 9, 17} {
			raw := make([]uint64, n)
			raw[n-1] = v
			checkColumn(t, appendRaw(nil, raw), n, raw)
		}
	}
	// Ten bytes: the largest value, and a tenth byte that overflows; eleven
	// bytes always overflow. Each alone, and after a full group.
	ten := append(bytes.Repeat([]byte{0xff}, 9), 0x01)
	tenOver := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	eleven := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	for _, v := range [][]byte{ten, tenOver, eleven, ten[:9]} {
		for _, prefix := range [][]byte{nil, bytes.Repeat([]byte{0x05}, 8), bytes.Repeat([]byte{0x05}, 7)} {
			b := append(slices.Clip(prefix), v...)
			checkColumn(t, b, len(prefix)+1, nil)
			checkColumn(t, append(slices.Clip(b), 0x00), len(prefix)+2, nil)
		}
	}
}

// FuzzPackedColumns holds the codec to the reference on arbitrary input:
// data decoded as a column of n values (and n±1) of every type, and the
// bytes of data read as little-endian words packed by every type's packer.
func FuzzPackedColumns(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(9))
	f.Add(appendRaw(nil, []uint64{1, 300, 2, 3, 4, 5, 6, 7, 70000, 8}), uint8(10))
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 0x01), uint8(1))
	f.Add(bytes.Repeat([]byte{0x7f}, 40), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		var raw []uint64
		for b := data; len(b) > 0; {
			var w [8]byte
			k := copy(w[:], b[:min(len(b), 1+int(b[0])%8)])
			raw = append(raw, binary.LittleEndian.Uint64(w[:]))
			b = b[k:]
		}
		checkColumn(t, data, int(n), raw)
	})
}
