package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"flexran/internal/lte"
	"flexran/internal/yamlite"
)

// This file is the whole decoding machinery of the scenario parser: one
// map walker and a dozen value constructors. Every section of a document
// is a []field table (scenario.go) handed to decodeMap; every constraint a
// knob can carry, and the one phrase that reports it, is written exactly
// once below.

// field binds one key of a section to the value that decodes it.
type field struct {
	key string
	value
}

// value validates one node and stores it in its destination.
type value struct {
	// what phrases the constraint: errors read "<path> must be <what>",
	// and the knob reference in scenarios/README.md prints it.
	what string
	// dst points at the destination of a scalar knob so the knob reference
	// can print the section's default; nil for nested sections.
	dst any
	// decode is handed the key's node and its full path ("ues[0].count").
	decode func(n *yamlite.Node, where string) error
}

// decodeMap decodes a map node against a field table. Keys are walked in
// document order, so the first offending key as written is the one
// reported; a key outside the table is an error, never an ignored knob.
func decodeMap(n *yamlite.Node, where string, fields []field) error {
	if n == nil || n.Kind != yamlite.KindMap {
		return fmt.Errorf("scenario: %s must be a map", noun(where))
	}
	for _, key := range n.Keys() {
		i := slices.IndexFunc(fields, func(f field) bool { return f.key == key })
		switch {
		case i >= 0:
			path := key
			if where != "" {
				path = where + "." + key
			}
			if err := fields[i].decode(n.Get(key), path); err != nil {
				return err
			}
		case where == "":
			return fmt.Errorf("scenario: unknown top-level key %q", key)
		default:
			return fmt.Errorf("scenario: %s has no knob %q", where, key)
		}
	}
	return nil
}

// noun names a node in a wrong-kind error: "document root" for the root,
// "run section" for a top-level section, the plain path below that.
func noun(where string) string {
	switch {
	case where == "":
		return "document root"
	case !strings.ContainsAny(where, ".["):
		return where + " section"
	}
	return where
}

func mustBe(where, what string) error {
	return fmt.Errorf("scenario: %s must be %s", where, what)
}

// Scalars.

type integer interface {
	~int | ~int64 | ~uint16 | ~uint32 | ~uint64
}

// intIn accepts an integer in [lo, hi] that its destination type can hold:
// a value that would truncate is out of range, not a different value.
func intIn[T integer](dst *T, lo, hi int64, what string) value {
	return value{what, dst, func(n *yamlite.Node, where string) error {
		v, err := n.Int()
		if w := T(v); err != nil || v < lo || v > hi || int64(w) != v || (w < 0) != (v < 0) {
			return mustBe(where, what)
		}
		*dst = T(v)
		return nil
	}}
}

func posInt[T integer](dst *T) value {
	return intIn(dst, 1, math.MaxInt64, "a positive integer")
}

func nonNegInt[T integer](dst *T) value {
	return intIn(dst, 0, math.MaxInt64, "a non-negative integer")
}

func anyInt[T integer](dst *T) value {
	return intIn(dst, math.MinInt64, math.MaxInt64, "an integer")
}

func cqi[T integer](dst *T) value {
	return intIn(dst, 1, lte.MaxCQI, fmt.Sprintf("a CQI in [1, %d]", lte.MaxCQI))
}

// upTo adds a size limit to an integer knob. The limits are constants of
// the package (scenario.go), not knobs: they bound what one document can
// make the parser and the builder allocate.
func upTo(v value, limit int64, unit string) value {
	v.what += fmt.Sprintf(" (at most %d)", limit)
	return after(v, func(n *yamlite.Node, where string) error {
		if got, _ := n.Int(); got > limit {
			return fmt.Errorf("scenario: %s: %d exceeds the limit of %d %s", where, got, limit, unit)
		}
		return nil
	})
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// floatIn accepts a finite float that satisfies ok.
func floatIn(dst *float64, what string, ok func(float64) bool) value {
	return value{what, dst, func(n *yamlite.Node, where string) error {
		f, err := n.Float()
		if err != nil || !finite(f) || !ok(f) {
			return mustBe(where, what)
		}
		*dst = f
		return nil
	}}
}

func number(dst *float64) value {
	return floatIn(dst, "a number", func(float64) bool { return true })
}

func posNum(dst *float64) value {
	return floatIn(dst, "a positive number", func(f float64) bool { return f > 0 })
}

func nonNegNum(dst *float64) value {
	return floatIn(dst, "a non-negative number", func(f float64) bool { return f >= 0 })
}

func prob(dst *float64) value {
	return floatIn(dst, "a probability in [0, 1]", func(f float64) bool { return f >= 0 && f <= 1 })
}

func fraction(dst *float64) value {
	return floatIn(dst, "in (0, 1]", func(f float64) bool { return f > 0 && f <= 1 })
}

func boolean(dst *bool) value {
	return value{"a boolean", dst, func(n *yamlite.Node, where string) error {
		b, err := n.Bool()
		if err != nil {
			return mustBe(where, "a boolean")
		}
		*dst = b
		return nil
	}}
}

// str stores the scalar as written. It never fails: a non-scalar reads as
// "", which the section's required-key check reports.
func str(dst *string) value {
	return value{"a string", dst, func(n *yamlite.Node, _ string) error {
		*dst = n.Str()
		return nil
	}}
}

// oneOf accepts one of a closed set of names; kind says what they name.
func oneOf(dst *string, kind string, names ...string) value {
	return value{"one of " + strings.Join(names, ", "), dst, func(n *yamlite.Node, where string) error {
		if !slices.Contains(names, n.Str()) {
			return fmt.Errorf("scenario: %s: unknown %s %q", where, kind, n.Str())
		}
		*dst = n.Str()
		return nil
	}}
}

// enbOrAll accepts an eNodeB id or the word "all".
func enbOrAll(id *lte.ENBID, all *bool) value {
	const what = `a positive integer or "all"`
	one := intIn(id, 1, math.MaxInt64, what)
	return value{what, id, func(n *yamlite.Node, where string) error {
		if n.Str() == "all" {
			*all = true
			return nil
		}
		return one.decode(n, where)
	}}
}

// Sequences of scalars.

// finiteFloats reads a sequence of finite floats.
func finiteFloats(n *yamlite.Node) ([]float64, bool) {
	fs, err := n.Floats()
	return fs, err == nil && !slices.ContainsFunc(fs, func(f float64) bool { return !finite(f) })
}

func floats(dst *[]float64) value {
	return value{"a float sequence", dst, func(n *yamlite.Node, where string) error {
		fs, ok := finiteFloats(n)
		if !ok || len(fs) == 0 {
			return mustBe(where, "a float sequence")
		}
		*dst = fs
		return nil
	}}
}

func point(dst *PointDecl) value {
	return value{"an [x, y] pair", nil, func(n *yamlite.Node, where string) error {
		fs, ok := finiteFloats(n)
		if !ok || len(fs) != 2 {
			return mustBe(where, "an [x, y] pair")
		}
		*dst = PointDecl{X: fs[0], Y: fs[1]}
		return nil
	}}
}

// points accepts a waypoint path; a bad waypoint is reported under the
// path's own key.
func points(dst *[]PointDecl) value {
	const what = "a sequence of [x, y] pairs"
	return value{what, nil, func(n *yamlite.Node, where string) error {
		if n.Kind != yamlite.KindSeq {
			return mustBe(where, what)
		}
		for _, it := range n.Items() {
			var pt PointDecl
			if err := point(&pt).decode(it, where); err != nil {
				return err
			}
			*dst = append(*dst, pt)
		}
		return nil
	}}
}

func enbIDs(dst *[]lte.ENBID) value {
	return value{"a sequence of positive integers", nil, func(n *yamlite.Node, where string) error {
		if n.Kind != yamlite.KindSeq {
			return mustBe(where, "a sequence")
		}
		for _, it := range n.Items() {
			var id lte.ENBID
			if posInt(&id).decode(it, where) != nil {
				return fmt.Errorf("scenario: %s must hold positive integers", where)
			}
			*dst = append(*dst, id)
		}
		return nil
	}}
}

// Nested sections.

// section decodes a nested map in place against an already built table:
// for sections whose defaults must hold even when the key is absent.
func section(fields []field) value {
	return value{"a map", nil, func(n *yamlite.Node, where string) error {
		return decodeMap(n, where, fields)
	}}
}

// sub decodes a nested section with its own parse function (table plus
// cross-key checks) and hands the result to store.
func sub[T any](parse func(n *yamlite.Node, where string) (T, error), store func(T)) value {
	return value{"a map", nil, func(n *yamlite.Node, where string) error {
		v, err := parse(n, where)
		if err != nil {
			return err
		}
		store(v)
		return nil
	}}
}

func into[T any](dst *T) func(T)     { return func(v T) { *dst = v } }
func intoPtr[T any](dst **T) func(T) { return func(v T) { *dst = &v } }

// list decodes a sequence of nested sections, appending each to dst.
func list[T any](dst *[]T, parse func(n *yamlite.Node, where string) (T, error)) value {
	return value{"a sequence", nil, func(n *yamlite.Node, where string) error {
		if n.Kind != yamlite.KindSeq {
			return mustBe(noun(where), "a sequence")
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

// after runs a further step once v has accepted its node: a second check,
// or a side effect on the section the key sits in.
func after(v value, step func(n *yamlite.Node, where string) error) value {
	inner := v.decode
	v.decode = func(n *yamlite.Node, where string) error {
		if err := inner(n, where); err != nil {
			return err
		}
		return step(n, where)
	}
	return v
}

// then is after for a side effect that cannot fail.
func then(v value, effect func()) value {
	return after(v, func(*yamlite.Node, string) error { effect(); return nil })
}
