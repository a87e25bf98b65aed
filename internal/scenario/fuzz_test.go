package scenario

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"
)

// FuzzParse drives the one entry point every scenario document goes
// through. Whatever the bytes, Parse must come back quickly with a
// Scenario or an error, never a panic; and a document it accepts must
// parse again to the same Scenario with its eNodeBs in id order — the
// property a NaN slipping past a range check breaks, since NaN != NaN.
func FuzzParse(f *testing.F) {
	for _, doc := range corpusDocs(f) {
		f.Add(doc.text)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		start := time.Now()
		sc, err := Parse(doc)
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("Parse took %v", d)
		}
		if err != nil {
			return
		}
		if !slices.IsSortedFunc(sc.ENBs, func(a, b ENBDecl) int { return cmp.Compare(a.ID, b.ID) }) {
			t.Fatal("eNodeBs are not sorted by id")
		}
		again, err := Parse(doc)
		if err != nil {
			t.Fatalf("second Parse failed: %v", err)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("second Parse differs:\n%+v\n%+v", sc, again)
		}
	})
}
