package flexran_test

import (
	"go/ast"
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
	files := walkImports(t, false, func(at token.Position, path string) {
		if path == "math/rand" {
			t.Errorf("%s imports math/rand; draw from internal/rng instead", at)
		}
	})
	if files < 50 {
		t.Fatalf("walked only %d program files; the guard is not looking at the module", files)
	}
	t.Logf("%d program files import no math/rand", files)
}

// TestNoConcOutsideBench is a static guard on the module's files, tests
// included: none outside bench/ may import internal/conc. The TTI engine
// and the master's RIB updater are serial — their worker pools measured
// slower than serial on every world tried — and internal/conc, their
// fork-join primitive, stays only because bench/ still compiles against
// it.
func TestNoConcOutsideBench(t *testing.T) {
	files := walkImports(t, true, func(at token.Position, path string) {
		if path == "flexran/internal/conc" {
			t.Errorf("%s imports internal/conc; the engine is serial", at)
		}
	})
	if files < 100 {
		t.Fatalf("walked only %d files; the guard is not looking at the module", files)
	}
}

// walkImports calls fn with every import of every Go file of the module
// outside bench/ (its own module, whose workloads are frozen) and hidden
// directories, test files only when tests is set, and returns how many
// files it parsed.
func walkImports(t *testing.T, tests bool, fn func(at token.Position, path string)) int {
	t.Helper()
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
		if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			fn(fset.Position(imp.Pos()), p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNoWallClockInSimClockedPackages is a static guard on the packages
// under internal/ that run on the simulated subframe clock: none may read
// the wall clock (time.Now, time.Since, time.Until), or a scenario's
// outcome could depend on the host. The exceptions are named by package
// and enclosing function, not by line, so they survive edits around them:
// each times work or stamps a probe only when a wall-clock deployment has
// installed LoopStats, so simulated runs never take that path. An entry
// whose function no longer reads the clock fails too, so the list cannot
// outlive its sites.
func TestNoWallClockInSimClockedPackages(t *testing.T) {
	// wallClocked are the packages whose job is the wall clock.
	wallClocked := map[string]bool{
		"internal/rt":          true, // the real-time pacer
		"internal/experiments": true, // figures that time their own runs (fig6's CPU cost)
	}
	allowed := map[string]bool{
		"internal/agent.(*Agent).onSubframe":         false, // report build time, LoopStats-gated
		"internal/controller.(*Master).Tick":         false, // ingest and app-slot time, LoopStats-gated
		"internal/controller.(*Master).applyInbound": false, // command round trip, LoopStats-gated
		"internal/controller.(*Master).heartbeat":    false, // liveness probe stamp, LoopStats-gated
		"internal/controller.(*Master).rttProbe":     false, // RTT probe, sent only with LoopStats
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if wallClocked[filepath.ToSlash(path)] || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		timePkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			return nil
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			site := pkg + "." + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != timePkg {
					return true
				}
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					if _, ok := allowed[site]; ok {
						allowed[site] = true
					} else {
						t.Errorf("%s: %s reads the wall clock (time.%s) in a sim-clocked package",
							fset.Position(sel.Pos()), site, sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d program files; the guard is not looking at the packages", files)
	}
	for site, seen := range allowed {
		if !seen {
			t.Errorf("%s is allowed to read the wall clock but no longer does; drop it from the list", site)
		}
	}
}

// declName names a top-level declaration the way the wall-clock allowlist
// does: "(*T).Method", "T.Method", "Func", or "var" for anything else.
func declName(d ast.Decl) string {
	fn, ok := d.(*ast.FuncDecl)
	if !ok {
		return "var"
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	switch r := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := r.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	case *ast.Ident:
		return r.Name + "." + fn.Name.Name
	}
	return "?." + fn.Name.Name
}
