package yamlite

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParse checks the parser on arbitrary text: Parse never panics, and
// every map of an accepted document holds each key once, with one value
// per key.
func FuzzParse(f *testing.F) {
	for _, c := range parseErrorCases {
		f.Add(c.doc)
	}
	f.Add(policyDoc)
	f.Add("- name: a\n  count: 2\n- name: b\n")
	f.Fuzz(func(t *testing.T, doc string) {
		root, err := Parse(doc)
		if err != nil {
			return
		}
		checkNode(t, root)
	})
}

// FuzzQuote checks that whatever one-line string a writer quotes reads back
// as itself as a map value, an inline-sequence item and the value of a list
// item's first key.
func FuzzQuote(f *testing.F) {
	for _, s := range []string{"", "slice-rr", "a: b", `x" #y`, `a"b: c`, `p", q`, "it's", `\`, " lead"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.Contains(s, "\n") {
			return
		}
		if err := readsBack(s, Quote(s)); err != nil {
			t.Fatal(err)
		}
	})
}

func checkNode(t *testing.T, n *Node) {
	t.Helper()
	switch n.Kind {
	case KindMap:
		if len(n.keys) != len(n.items) {
			t.Fatalf("map holds %d keys and %d values", len(n.keys), len(n.items))
		}
		for i, k := range n.keys {
			if slices.Index(n.keys, k) != i {
				t.Fatalf("map holds key %q twice: %q", k, n.keys)
			}
		}
	case KindSeq:
		if len(n.keys) != 0 {
			t.Fatalf("sequence holds keys %q", n.keys)
		}
	case KindScalar:
		if len(n.keys) != 0 || len(n.items) != 0 {
			t.Fatalf("scalar holds keys %q and %d items", n.keys, len(n.items))
		}
		return
	default:
		t.Fatalf("node of kind %v", n.Kind)
	}
	for _, it := range n.items {
		if it == nil {
			t.Fatal("nil value")
		}
		checkNode(t, it)
	}
}
