package flexran_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoMathRandV1OutsideBench is a static guard on the module's program
// files: none outside bench/ (its own module, whose workloads are frozen)
// may import math/rand. Every stochastic model draws from internal/rng, a
// 16-byte math/rand/v2 PCG; one math/rand source is 4.9 KB, about three
// times what a whole idle eNodeB costs, so a single import in a per-UE or
// per-eNodeB model would undo the memory gates several times over.
func TestNoMathRandV1OutsideBench(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
				t.Errorf("%s imports math/rand; draw from internal/rng instead", fset.Position(imp.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d program files; the guard is not looking at the module", files)
	}
	t.Logf("%d program files import no math/rand", files)
}
