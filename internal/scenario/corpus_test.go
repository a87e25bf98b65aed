package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/parse_errors.golden and the knob reference in scenarios/README.md")

// corpusDoc is one valid scenario document the parser corpus mutates.
type corpusDoc struct{ name, text string }

// corpusDocs returns the scenario library minus the two scale-* worlds
// (a mutant of those allocates a hundred thousand UEs) plus the
// testdata/knobs-*.yaml documents, which set every knob the library does
// not.
func corpusDocs(t testing.TB) []corpusDoc {
	t.Helper()
	var paths []string
	for _, pattern := range []string{
		filepath.Join("..", "..", "scenarios", "*.yaml"),
		filepath.Join("testdata", "knobs-*.yaml"),
	} {
		m, err := filepath.Glob(pattern)
		if err != nil || len(m) == 0 {
			t.Fatalf("no corpus documents match %s (err %v)", pattern, err)
		}
		paths = append(paths, m...)
	}
	var docs []corpusDoc
	for _, p := range paths {
		name := filepath.Base(p)
		if strings.HasPrefix(name, "scale-") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, corpusDoc{name, string(data)})
	}
	return docs
}

// mutant is one single-line edit of a corpus document.
type mutant struct {
	line       int    // 1-based line of the edited key
	section    string // document path of the map holding the key: "", "run", "ues[].traffic[]"
	key, value string // the key as written and what replaced its value ("" for a rename)
	text       string // the whole mutated document
}

func (m mutant) String() string {
	if m.value == "" {
		return fmt.Sprintf("%d\t%s -> bogus_knob", m.line, m.key)
	}
	return fmt.Sprintf("%d\t%s: %s", m.line, m.key, m.value)
}

// scalarMutations replace the value of every "key: scalar" line: one value
// per way a knob can be wrong (sign, zero, fraction, word, sequence,
// not-a-number, boolean, beyond 16 bits).
var scalarMutations = []string{"-1", "0", "1.5", "abc", "[1]", "NaN", "true", "70000"}

var keyLine = regexp.MustCompile(`^(\s*(?:- )?)([A-Za-z_][A-Za-z0-9_]*):(?:\s+(.*))?$`)

// mutants enumerates the line-mutation corpus of one document. A line
// holding a scalar gets every scalarMutations value; a line opening a
// nested block or holding an inline sequence gets one mutant replacing the
// whole value with a scalar. Every key line also gets its key renamed to
// bogus_knob.
func mutants(doc string) []mutant {
	lines := strings.Split(doc, "\n")
	var out []mutant
	// open holds the keys whose blocks enclose the current line, by column.
	type frame struct {
		col  int
		name string
	}
	var open []frame
	for i, raw := range lines {
		line := raw
		if c := strings.Index(line, " #"); c >= 0 {
			line = line[:c]
		}
		m := keyLine.FindStringSubmatch(strings.TrimRight(line, " "))
		if m == nil {
			continue
		}
		prefix, key, val := m[1], m[2], m[3]
		dash := strings.HasSuffix(prefix, "- ")
		outer := len(prefix)
		if dash {
			outer -= 2
		}
		for len(open) > 0 && open[len(open)-1].col >= outer {
			open = open[:len(open)-1]
		}
		if dash && len(open) > 0 && !strings.HasSuffix(open[len(open)-1].name, "[]") {
			open[len(open)-1].name += "[]"
		}
		var names []string
		for _, f := range open {
			names = append(names, f.name)
		}
		section := strings.Join(names, ".")
		open = append(open, frame{len(prefix), key})
		// A nested block is every following line indented deeper than the
		// key; replacing the value with a scalar takes the block with it.
		end := i + 1
		if val == "" {
			for end < len(lines) && (strings.TrimSpace(lines[end]) == "" || indentOf(lines[end]) > len(prefix)) {
				end++
			}
		}
		edit := func(value, newLine string, upto int) {
			mutated := append(append(append([]string{}, lines[:i]...), newLine), lines[upto:]...)
			out = append(out, mutant{line: i + 1, section: section, key: key, value: value, text: strings.Join(mutated, "\n")})
		}
		if val == "" || strings.HasPrefix(val, "[") {
			edit("7", prefix+key+": 7", end)
		} else {
			for _, v := range scalarMutations {
				edit(v, prefix+key+": "+v, i+1)
			}
		}
		renamed := prefix + "bogus_knob:"
		if val != "" {
			renamed += " " + val
		}
		edit("", renamed, i+1)
	}
	return out
}

func indentOf(line string) int { return len(line) - len(strings.TrimLeft(line, " ")) }

// TestParseErrorCorpus pins what Parse says about every single-line
// mutation of every corpus document, so a rewrite of the parser can be
// diffed result by result. Regenerate with -update and review the diff.
func TestParseErrorCorpus(t *testing.T) {
	var b strings.Builder
	for _, doc := range corpusDocs(t) {
		if _, err := Parse(doc.text); err != nil {
			t.Fatalf("%s: unmutated document does not parse: %v", doc.name, err)
		}
		for _, m := range mutants(doc.text) {
			id := doc.name + ":" + m.String()
			result := "ok"
			if _, err := Parse(m.text); err != nil {
				result = err.Error()
			}
			fmt.Fprintf(&b, "%s\t%s\n", id, result)
		}
	}
	golden := filepath.Join("testdata", "parse_errors.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/scenario -run TestParseErrorCorpus -update)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("corpus has %d results, golden %d", len(got)-1, len(wantLines)-1)
	}
	shown := 0
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			if shown++; shown <= 20 {
				t.Errorf("result %d:\n got %s\nwant %s", i+1, got[i], wantLines[i])
			}
		}
	}
	if shown > 20 {
		t.Errorf("... and %d more differing results", shown-20)
	}
}
