package protocol

// The field-table engine. A message struct declares its wire form once, as
// a table of typed fields (newFields), and this file derives from the table
// everything the struct needs: the encoder walks it in order, the decoder is
// the one field loop below, and the pool reset clears what the table names.
// The README's protocol reference is printed from the same tables, so a
// field cannot be on the wire without being in the reference.
//
// The original FlexRAN protocol is a Protocol Buffers schema; these tables
// are the stdlib-only stand-in for its .proto files and generated codecs.
// The kinds every TTI puts on the wire (StatsReply, the schedules,
// SubframeTrigger and what they nest) keep hand-tuned codecs instead, and
// carry their tables test-side, as the reference the tuned code is checked
// against (reference_test.go).

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

func uintF[T any, V uintLike](num int, name string, at func(*T) *V) field[T] {
	return valueF(num, name, "varint", at,
		func(e *wire.Encoder, num int, v V) { e.Uint(num, uint64(v)) },
		func(d *wire.Decoder) (v V, err error) { return v, readUint(d, &v) })
}

// omitIf makes f a field that is not sent while empty holds: what a field
// added after agents were deployed needs, so that a sender which never sets
// it emits the frames older builds do.
func omitIf[T any](f field[T], when string, empty func(*T) bool) field[T] {
	f.shape += ", omitted when " + when
	send := f.enc
	f.enc = func(p *T, e *wire.Encoder) {
		if !empty(p) {
			send(p, e)
		}
	}
	return f
}

func optUintF[T any, V uintLike](num int, name string, at func(*T) *V) field[T] {
	return omitIf(uintF(num, name, at), "0", func(p *T) bool { return *at(p) == 0 })
}

func sintF[T any, V wire.Sint](num int, name string, at func(*T) *V) field[T] {
	return valueF(num, name, "zigzag varint", at,
		func(e *wire.Encoder, num int, v V) { e.Int(num, int64(v)) },
		func(d *wire.Decoder) (V, error) {
			v, err := d.ReadInt()
			if err == nil && int64(V(v)) != v {
				err = wire.ErrRange
			}
			return V(v), err
		})
}

func boolF[T any](num int, name string, at func(*T) *bool) field[T] {
	return valueF(num, name, "varint 0/1", at, (*wire.Encoder).Bool, (*wire.Decoder).ReadBool)
}

func stringF[T any](num int, name string, at func(*T) *string) field[T] {
	return valueF(num, name, "bytes", at, (*wire.Encoder).String, (*wire.Decoder).ReadString)
}

// bytesF copies what it decodes: a payload owns its bytes, the frame buffer
// is the transport's to reuse.
func bytesF[T any](num int, name string, at func(*T) *[]byte) field[T] {
	return valueF(num, name, "bytes", at, (*wire.Encoder).BytesField,
		func(d *wire.Decoder) ([]byte, error) {
			b, err := d.ReadBytes()
			return append([]byte(nil), b...), err
		})
}

// message is a pointer to a struct M that has a wire form of its own.
type message[M any] interface {
	*M
	wire.Marshaler
	wire.Unmarshaler
}

// msgF is one nested message. Decoding merges into the struct in place, so
// a field sent twice accumulates its repeated fields, as protobuf has it.
func msgF[T, M any, PM message[M]](num int, name string, at func(*T) *M) field[T] {
	return field[T]{
		fieldInfo{num, name, "message", fmt.Sprintf("%T", *new(M))},
		func(p *T, e *wire.Encoder) { e.Message(num, PM(at(p))) },
		func(p *T, d *wire.Decoder) error { return d.ReadMessage(PM(at(p))) },
		func(p *T) { *at(p) = *new(M) },
	}
}

// repF is a repeated nested message, one field per element. Elements decode
// into the slice's spare capacity (grow), not through a temporary.
func repF[T, M any, PM message[M]](num int, name string, at func(*T) *[]M) field[T] {
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
	}
}

// ueBlockF is the columnar UE block (uetable.go). A table without rows is
// not sent; reset keeps every column's capacity.
func ueBlockF[T any](num int, name string, at func(*T) *UETable) field[T] {
	f := msgF(num, name, at)
	f.shape = "UE block"
	f.reset = func(p *T) { at(p).Resize(0) }
	return omitIf(f, "empty", func(p *T) bool { return at(p).Len() == 0 })
}

// retired reserves a number a deployed build once sent: it is never encoded,
// skipped when received, and cannot be declared again.
func retired[T any](num int, was string) field[T] {
	return field[T]{
		fieldInfo{num, was, "retired", ""},
		func(*T, *wire.Encoder) {},
		func(_ *T, d *wire.Decoder) error { return d.Skip() },
		func(*T) {},
	}
}
