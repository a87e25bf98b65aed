// Package experiments regenerates every table and figure of the FlexRAN
// paper's evaluation (§5) and use cases (§6). Each experiment builds its
// scenario on internal/sim, runs it on the virtual clock, and returns a
// structured result with a String() rendering shaped like the paper's
// plot/table. The ids name the paper's figures and tables; TestRunAllRenders
// pins the digest of every deterministic report in testdata/figures.txt.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Result is one regenerated table/figure.
type Result interface {
	// ID is the paper artifact ("fig7a", "table2", ...).
	ID() string
	fmt.Stringer
}

// Runner produces a result; Scale < 1 shortens the measurement window for
// quick test runs (1.0 reproduces the full experiment).
type Runner func(scale float64) Result

// registry maps experiment ids to runners.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists the registered experiments, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id at the given scale.
func Run(id string, scale float64) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	if scale <= 0 {
		scale = 1
	}
	return r(scale), nil
}

// RunAll executes every experiment, writing each report to w.
func RunAll(w io.Writer, scale float64) error {
	for _, id := range IDs() {
		res, err := Run(id, scale)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", res); err != nil {
			return err
		}
	}
	return nil
}

// table is a minimal fixed-width text table builder for reports.
type table struct {
	b     strings.Builder
	title string
}

func newTable(title string) *table {
	t := &table{title: title}
	t.b.WriteString(title + "\n")
	t.b.WriteString(strings.Repeat("-", len(title)) + "\n")
	return t
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			t.b.WriteString("  ")
		}
		t.b.WriteString(fmt.Sprintf("%-14s", c))
	}
	t.b.WriteString("\n")
}

func (t *table) String() string { return t.b.String() }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
