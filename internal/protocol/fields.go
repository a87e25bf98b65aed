package protocol

// The field-table engine. A message struct declares its wire form once, as
// a table of typed fields (newFields), and this file derives from the table
// everything the struct needs: the encoder walks it in order, the decoder is
// the one field loop below, the pool reset clears what the table names, and
// the deep copy (ClonePooled) copies exactly what the wire would carry.
// The README's protocol reference is printed from the same tables, so a
// field cannot be on the wire without being in the reference.
//
// The original FlexRAN protocol is a Protocol Buffers schema; these tables
// are the stdlib-only stand-in for its .proto files and generated codecs.

import (
	"fmt"

	"flexran/internal/wire"
)

// fieldInfo is what the protocol reference prints about one field.
type fieldInfo struct {
	num    int
	name   string
	shape  string // how the value travels; "retired" for a number never to be reused
	goType string
}

// field is one wire field of the message struct T.
type field[T any] struct {
	fieldInfo
	enc   func(*T, *wire.Encoder)
	dec   func(*T, *wire.Decoder) error // consumes the pending field
	reset func(*T)
	// copy gives dst what decoding src's encoding into dst would: a deep
	// copy of the field that shares no memory with src.
	copy func(dst, src *T)
}

// fields is the wire form of T: its fields in encoding order, and their
// decoders by field number.
type fields[T any] struct {
	list  []field[T]
	byNum []func(*T, *wire.Decoder) error
}

// newFields builds a table. Two fields with one number is a bug in the
// declaration, not in any input, so it fails at init.
func newFields[T any](list ...field[T]) *fields[T] {
	fs := &fields[T]{list: list}
	for _, f := range list {
		for len(fs.byNum) <= f.num {
			fs.byNum = append(fs.byNum, nil)
		}
		if fs.byNum[f.num] != nil {
			panic(fmt.Sprintf("protocol: %T declares field %d twice", *new(T), f.num))
		}
		fs.byNum[f.num] = f.dec
	}
	return fs
}

func (fs *fields[T]) marshal(p *T, e *wire.Encoder) {
	for i := range fs.list {
		fs.list[i].enc(p, e)
	}
}

// unmarshal is the field loop of every table-declared struct: a known
// number goes to that field's decoder, and anything else — whatever its wire
// type — is skipped, which is what lets a newer peer add fields.
func (fs *fields[T]) unmarshal(p *T, d *wire.Decoder) error {
	for {
		ok, err := d.Next()
		if err != nil || !ok {
			return err
		}
		if f := d.Field(); f < len(fs.byNum) && fs.byNum[f] != nil {
			err = fs.byNum[f](p, d)
		} else {
			err = d.Skip()
		}
		if err != nil {
			return err
		}
	}
}

// reset clears every field for reuse from a free list: scalars are zeroed,
// repeated fields truncated with their capacity kept.
func (fs *fields[T]) reset(p *T) {
	for i := range fs.list {
		fs.list[i].reset(p)
	}
}

// copy makes dst, fresh or reset, what decoding src's encoding into it
// would make it, reusing dst's slice capacity and sharing no memory with
// src.
func (fs *fields[T]) copy(dst, src *T) {
	for i := range fs.list {
		fs.list[i].copy(dst, src)
	}
}

// assign is the copy of a field that holds no memory of its own.
func assign[T, V any](at func(*T) *V) func(dst, src *T) {
	return func(dst, src *T) { *at(dst) = *at(src) }
}

// Field constructors, one per wire shape. Each takes the field's number, its
// name in the protocol reference and an accessor for the struct field.

// valueF is a field that is one value of type V, sent by put and read by get.
func valueF[T, V any](num int, name, shape string, at func(*T) *V,
	put func(*wire.Encoder, int, V), get func(*wire.Decoder) (V, error)) field[T] {
	return field[T]{
		fieldInfo{num, name, shape, fmt.Sprintf("%T", *new(V))},
		func(p *T, e *wire.Encoder) { put(e, num, *at(p)) },
		func(p *T, d *wire.Decoder) (err error) { *at(p), err = get(d); return err },
		func(p *T) { *at(p) = *new(V) },
		assign(at),
	}
}

// uintLike is a Go type an unsigned varint decodes into. int64 is there for
// Echo.TS, which travels as its two's complement.
type uintLike interface{ wire.Uint | ~int64 }

// narrow stores v in dst, unless dst's type cannot hold it: a value that
// would truncate is out of range, not a different value.
func narrow[V uintLike](dst *V, v uint64) error {
	if v > uint64(^V(0)) {
		return wire.ErrRange
	}
	*dst = V(v)
	return nil
}

// readUint consumes the pending varint field into dst.
func readUint[V uintLike](d *wire.Decoder, dst *V) error {
	v, err := d.ReadUint()
	if err != nil {
		return err
	}
	return narrow(dst, v)
}

// uintF, optUintF, sintF and boolF build their closures directly rather
// than through valueF: one call deep instead of two, on the fields every TTI
// sends.

func uintF[T any, V uintLike](num int, name string, at func(*T) *V) field[T] {
	return field[T]{
		fieldInfo{num, name, "varint", fmt.Sprintf("%T", *new(V))},
		func(p *T, e *wire.Encoder) { e.Uint(num, uint64(*at(p))) },
		func(p *T, d *wire.Decoder) error { return readUint(d, at(p)) },
		func(p *T) { *at(p) = 0 },
		assign(at),
	}
}

// optUintF is a varint not sent while 0: what a field added after agents
// were deployed needs, so that a sender which never sets it emits the
// frames older builds do.
func optUintF[T any, V uintLike](num int, name string, at func(*T) *V) field[T] {
	f := uintF(num, name, at)
	f.shape += ", omitted when 0"
	f.enc = func(p *T, e *wire.Encoder) {
		if v := *at(p); v != 0 {
			e.Uint(num, uint64(v))
		}
	}
	return f
}

func sintF[T any, V wire.Sint](num int, name string, at func(*T) *V) field[T] {
	return field[T]{
		fieldInfo{num, name, "zigzag varint", fmt.Sprintf("%T", *new(V))},
		func(p *T, e *wire.Encoder) { e.Int(num, int64(*at(p))) },
		func(p *T, d *wire.Decoder) error {
			v, err := d.ReadInt()
			if err == nil && int64(V(v)) != v {
				err = wire.ErrRange
			}
			*at(p) = V(v)
			return err
		},
		func(p *T) { *at(p) = 0 },
		assign(at),
	}
}

func boolF[T any](num int, name string, at func(*T) *bool) field[T] {
	return field[T]{
		fieldInfo{num, name, "varint 0/1", "bool"},
		func(p *T, e *wire.Encoder) { e.Bool(num, *at(p)) },
		func(p *T, d *wire.Decoder) (err error) { *at(p), err = d.ReadBool(); return err },
		func(p *T) { *at(p) = false },
		assign(at),
	}
}

func stringF[T any](num int, name string, at func(*T) *string) field[T] {
	return valueF(num, name, "bytes", at, (*wire.Encoder).String, (*wire.Decoder).ReadString)
}

// bytesF copies what it decodes: a payload owns its bytes, the frame buffer
// is the transport's to reuse.
func bytesF[T any](num int, name string, at func(*T) *[]byte) field[T] {
	f := valueF(num, name, "bytes", at, (*wire.Encoder).BytesField,
		func(d *wire.Decoder) ([]byte, error) {
			b, err := d.ReadBytes()
			return append([]byte(nil), b...), err
		})
	f.copy = func(dst, src *T) { *at(dst) = append([]byte(nil), *at(src)...) }
	return f
}

// message is a pointer to a struct M that has a wire form of its own.
type message[M any] interface {
	*M
	wire.Marshaler
	wire.Unmarshaler
}

// msgF is one nested message, declared by the table fs. Decoding merges
// into the struct in place, so a field sent twice accumulates its repeated
// fields, as protobuf has it.
func msgF[T, M any, PM message[M]](num int, name string, fs *fields[M], at func(*T) *M) field[T] {
	return field[T]{
		fieldInfo{num, name, "message", fmt.Sprintf("%T", *new(M))},
		func(p *T, e *wire.Encoder) { e.Message(num, PM(at(p))) },
		func(p *T, d *wire.Decoder) error { return d.ReadMessage(PM(at(p))) },
		func(p *T) { *at(p) = *new(M) },
		func(dst, src *T) { fs.copy(at(dst), at(src)) },
	}
}

// repF is a repeated nested message, one field per element, each declared
// by the table fs. Elements decode into the slice's spare capacity (grow),
// not through a temporary.
func repF[T, M any, PM message[M]](num int, name string, fs *fields[M], at func(*T) *[]M) field[T] {
	return field[T]{
		fieldInfo{num, name, "message, repeated", fmt.Sprintf("%T", []M(nil))},
		func(p *T, e *wire.Encoder) {
			s := *at(p)
			for i := range s {
				e.Message(num, PM(&s[i]))
			}
		},
		func(p *T, d *wire.Decoder) error {
			var m *M
			*at(p), m = grow(*at(p))
			*m = *new(M)
			return d.ReadMessage(PM(m))
		},
		func(p *T) { *at(p) = (*at(p))[:0] },
		func(dst, src *T) {
			s, d := *at(src), resize(*at(dst), len(*at(src)))
			for i := range s {
				fs.copy(&d[i], &s[i])
			}
			*at(dst) = d
		},
	}
}

// ueBlockF is the columnar UE block, declared by its column list
// (uetable.go). A table without rows is not sent, so it is not copied
// either; reset keeps every column's capacity.
func ueBlockF[T any](num int, name string, at func(*T) *UETable) field[T] {
	return field[T]{
		fieldInfo{num, name, "message, omitted when empty", fmt.Sprintf("%T", UETable{})},
		func(p *T, e *wire.Encoder) {
			if t := at(p); t.Len() > 0 {
				e.Message(num, t)
			}
		},
		func(p *T, d *wire.Decoder) error { return d.ReadMessage(at(p)) },
		func(p *T) { at(p).Resize(0) },
		func(dst, src *T) {
			if t := at(src); t.Len() > 0 {
				at(dst).CopyFrom(t)
			}
		},
	}
}

// retired reserves a number a deployed build once sent: it is never encoded,
// skipped when received, and cannot be declared again.
func retired[T any](num int, was string) field[T] {
	return field[T]{
		fieldInfo{num, was, "retired", ""},
		func(*T, *wire.Encoder) {},
		func(_ *T, d *wire.Decoder) error { return d.Skip() },
		func(*T) {},
		func(_, _ *T) {},
	}
}
