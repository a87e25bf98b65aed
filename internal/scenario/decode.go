package scenario

import (
	"fmt"
	"math"

	"flexran/internal/lte"
	"flexran/internal/yamlite"
)

// The scenario parser decodes through yamlite's schema layer: every
// section of a document is a []yamlite.Field table (scenario.go) handed to
// yamlite.DecodeMap. This file holds the values only a scenario has.

func cqi[T yamlite.Integer](dst *T) yamlite.Value {
	return yamlite.IntIn(dst, 1, lte.MaxCQI, fmt.Sprintf("a CQI in [1, %d]", lte.MaxCQI))
}

// enbOrAll accepts an eNodeB id or the word "all".
func enbOrAll(id *lte.ENBID, all *bool) yamlite.Value {
	const what = `a positive integer or "all"`
	one := yamlite.IntIn(id, 1, math.MaxInt64, what)
	return yamlite.Value{What: what, Dst: id, Decode: func(n *yamlite.Node, where string) error {
		if n.Str() == "all" {
			*all = true
			return nil
		}
		return one.Decode(n, where)
	}}
}

func point(dst *PointDecl) yamlite.Value {
	return yamlite.Value{What: "an [x, y] pair", Decode: func(n *yamlite.Node, where string) error {
		fs, ok := yamlite.FiniteFloats(n)
		if !ok || len(fs) != 2 {
			return yamlite.MustBe(where, "an [x, y] pair")
		}
		*dst = PointDecl{X: fs[0], Y: fs[1]}
		return nil
	}}
}

// points accepts a waypoint path; a bad waypoint is reported under the
// path's own key.
func points(dst *[]PointDecl) yamlite.Value {
	const what = "a sequence of [x, y] pairs"
	return yamlite.Value{What: what, Decode: func(n *yamlite.Node, where string) error {
		if n.Kind != yamlite.KindSeq {
			return yamlite.MustBe(where, what)
		}
		for _, it := range n.Items() {
			var pt PointDecl
			if err := point(&pt).Decode(it, where); err != nil {
				return err
			}
			*dst = append(*dst, pt)
		}
		return nil
	}}
}

func enbIDs(dst *[]lte.ENBID) yamlite.Value {
	return yamlite.Value{What: "a sequence of positive integers", Decode: func(n *yamlite.Node, where string) error {
		if n.Kind != yamlite.KindSeq {
			return yamlite.MustBe(where, "a sequence")
		}
		for _, it := range n.Items() {
			var id lte.ENBID
			if yamlite.PosInt(&id).Decode(it, where) != nil {
				return fmt.Errorf("%s must hold positive integers", where)
			}
			*dst = append(*dst, id)
		}
		return nil
	}}
}
