package yamlite

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// This file is the schema layer: one map walker and the value constructors
// every document's tables are built from. A section of a document is a
// []Field table handed to DecodeMap; every constraint a key can carry, and
// the one phrase that reports it, is written exactly once below. Errors
// carry no package prefix: the caller adds its own once, at the root.

// Field binds one key of a section to the value that decodes it.
type Field struct {
	Key string
	Value
}

// Value validates one node and stores it in its destination.
type Value struct {
	// What phrases the constraint: errors read "<path> must be <What>",
	// and a generated knob reference can print it.
	What string
	// Dst points at the destination of a scalar knob so a knob reference
	// can print the section's default; nil for nested sections.
	Dst any
	// Decode is handed the key's node and its full path ("ues[0].count").
	Decode func(n *Node, where string) error
}

// DecodeMap decodes a map node against a field table. Keys are walked in
// document order, so the first offending key as written is the one
// reported; a key outside the table is an error, never an ignored knob.
func DecodeMap(n *Node, where string, fields []Field) error {
	if n == nil || n.Kind != KindMap {
		return fmt.Errorf("%s must be a map", Noun(where))
	}
	for i, key := range n.keys {
		j := slices.IndexFunc(fields, func(f Field) bool { return f.Key == key })
		switch {
		case j >= 0:
			path := key
			if where != "" {
				path = where + "." + key
			}
			if err := fields[j].Decode(n.items[i], path); err != nil {
				return err
			}
		case where == "":
			return fmt.Errorf("unknown top-level key %q", key)
		default:
			return fmt.Errorf("%s has no knob %q", where, key)
		}
	}
	return nil
}

// Noun names a node in a wrong-kind error: "document root" for the root,
// "run section" for a top-level section, the plain path below that.
func Noun(where string) string {
	switch {
	case where == "":
		return "document root"
	case !strings.ContainsAny(where, ".["):
		return where + " section"
	}
	return where
}

// MustBe is the error every constraint reports: "<where> must be <what>".
func MustBe(where, what string) error {
	return fmt.Errorf("%s must be %s", where, what)
}

// Scalars.

// Integer is the destination type of an integer knob.
type Integer interface {
	~int | ~int64 | ~uint16 | ~uint32 | ~uint64
}

// IntIn accepts an integer in [lo, hi] that its destination type can hold:
// a value that would truncate is out of range, not a different value.
func IntIn[T Integer](dst *T, lo, hi int64, what string) Value {
	return Value{what, dst, func(n *Node, where string) error {
		v, err := n.Int()
		if w := T(v); err != nil || v < lo || v > hi || int64(w) != v || (w < 0) != (v < 0) {
			return MustBe(where, what)
		}
		*dst = T(v)
		return nil
	}}
}

// PosInt accepts an integer >= 1.
func PosInt[T Integer](dst *T) Value {
	return IntIn(dst, 1, math.MaxInt64, "a positive integer")
}

// NonNegInt accepts an integer >= 0.
func NonNegInt[T Integer](dst *T) Value {
	return IntIn(dst, 0, math.MaxInt64, "a non-negative integer")
}

// AnyInt accepts any integer its destination can hold.
func AnyInt[T Integer](dst *T) Value {
	return IntIn(dst, math.MinInt64, math.MaxInt64, "an integer")
}

// UpTo adds a size limit to an integer knob: a bound on what one document
// can make its reader allocate, not a knob itself.
func UpTo(v Value, limit int64, unit string) Value {
	v.What += fmt.Sprintf(" (at most %d)", limit)
	return After(v, func(n *Node, where string) error {
		if got, _ := n.Int(); got > limit {
			return fmt.Errorf("%s: %d exceeds the limit of %d %s", where, got, limit, unit)
		}
		return nil
	})
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// FloatIn accepts a finite float that satisfies ok.
func FloatIn(dst *float64, what string, ok func(float64) bool) Value {
	return Value{what, dst, func(n *Node, where string) error {
		f, err := n.Float()
		if err != nil || !finite(f) || !ok(f) {
			return MustBe(where, what)
		}
		*dst = f
		return nil
	}}
}

// Number accepts any finite float.
func Number(dst *float64) Value {
	return FloatIn(dst, "a number", func(float64) bool { return true })
}

// PosNum accepts a finite float > 0.
func PosNum(dst *float64) Value {
	return FloatIn(dst, "a positive number", func(f float64) bool { return f > 0 })
}

// NonNegNum accepts a finite float >= 0.
func NonNegNum(dst *float64) Value {
	return FloatIn(dst, "a non-negative number", func(f float64) bool { return f >= 0 })
}

// Prob accepts a probability in [0, 1].
func Prob(dst *float64) Value {
	return FloatIn(dst, "a probability in [0, 1]", func(f float64) bool { return f >= 0 && f <= 1 })
}

// Fraction accepts a float in (0, 1].
func Fraction(dst *float64) Value {
	return FloatIn(dst, "in (0, 1]", func(f float64) bool { return f > 0 && f <= 1 })
}

// Boolean accepts a YAML boolean.
func Boolean(dst *bool) Value {
	return Value{"a boolean", dst, func(n *Node, where string) error {
		b, err := n.Bool()
		if err != nil {
			return MustBe(where, "a boolean")
		}
		*dst = b
		return nil
	}}
}

// Str stores the scalar as written. It never fails: a non-scalar reads as
// "", which the section's required-key check reports.
func Str(dst *string) Value {
	return Value{"a string", dst, func(n *Node, _ string) error {
		*dst = n.Str()
		return nil
	}}
}

// OneOf accepts one of a closed set of names; kind says what they name.
func OneOf(dst *string, kind string, names ...string) Value {
	return Value{"one of " + strings.Join(names, ", "), dst, func(n *Node, where string) error {
		if !slices.Contains(names, n.Str()) {
			return fmt.Errorf("%s: unknown %s %q", where, kind, n.Str())
		}
		*dst = n.Str()
		return nil
	}}
}

// Sequences of scalars.

// FiniteFloats reads a sequence of finite floats.
func FiniteFloats(n *Node) ([]float64, bool) {
	fs, err := n.Floats()
	return fs, err == nil && !slices.ContainsFunc(fs, func(f float64) bool { return !finite(f) })
}

// Floats accepts a non-empty sequence of finite floats.
func Floats(dst *[]float64) Value {
	return Value{"a float sequence", dst, func(n *Node, where string) error {
		fs, ok := FiniteFloats(n)
		if !ok || len(fs) == 0 {
			return MustBe(where, "a float sequence")
		}
		*dst = fs
		return nil
	}}
}

// Nested sections.

// Section decodes a nested map in place against an already built table:
// for sections whose defaults must hold even when the key is absent.
func Section(fields []Field) Value {
	return Value{"a map", nil, func(n *Node, where string) error {
		return DecodeMap(n, where, fields)
	}}
}

// Sub decodes a nested section with its own parse function (table plus
// cross-key checks) and hands the result to store.
func Sub[T any](parse func(n *Node, where string) (T, error), store func(T)) Value {
	return Value{"a map", nil, func(n *Node, where string) error {
		v, err := parse(n, where)
		if err != nil {
			return err
		}
		store(v)
		return nil
	}}
}

// Into and IntoPtr are Sub's usual stores: the value, or a pointer to it.
func Into[T any](dst *T) func(T)     { return func(v T) { *dst = v } }
func IntoPtr[T any](dst **T) func(T) { return func(v T) { *dst = &v } }

// List decodes a sequence of nested sections, appending each to dst.
func List[T any](dst *[]T, parse func(n *Node, where string) (T, error)) Value {
	return Value{"a sequence", nil, func(n *Node, where string) error {
		if n.Kind != KindSeq {
			return MustBe(Noun(where), "a sequence")
		}
		for i, item := range n.Items() {
			v, err := parse(item, fmt.Sprintf("%s[%d]", where, i))
			if err != nil {
				return err
			}
			*dst = append(*dst, v)
		}
		return nil
	}}
}

// After runs a further step once v has accepted its node: a second check,
// or a side effect on the section the key sits in.
func After(v Value, step func(n *Node, where string) error) Value {
	inner := v.Decode
	v.Decode = func(n *Node, where string) error {
		if err := inner(n, where); err != nil {
			return err
		}
		return step(n, where)
	}
	return v
}

// Then is After for a side effect that cannot fail.
func Then(v Value, effect func()) Value {
	return After(v, func(*Node, string) error { effect(); return nil })
}
