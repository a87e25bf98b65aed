package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexran/internal/apps/broker"
	"flexran/internal/controller"
	"flexran/internal/sim"
	"flexran/internal/slice"
	"flexran/internal/transport"
	"flexran/internal/yamlite"
)

// sections lists every field table of the parser under the document
// path(s) it decodes. The corpus-coverage test and the knob reference in
// scenarios/README.md are both enumerations of this list.
var sections = []struct {
	paths []string
	table []yamlite.Field
}{
	{[]string{""}, scenarioTable(new(Scenario))},
	{[]string{"run"}, runTable(new(RunSpec))},
	{[]string{"topology"}, topologyTable(new([]ENBDecl))},
	{[]string{"topology.grid"}, gridTable(new(lattice))},
	{[]string{"topology.honeycomb"}, honeycombTable(new(lattice))},
	{[]string{"topology.enbs[]"}, enbTable(new(ENBDecl))},
	{[]string{"topology.enbs[].to_master", "topology.enbs[].to_agent", "faults[].to_master", "faults[].to_agent"}, netemTable(new(transport.Netem))},
	{[]string{"ues[]"}, ueGroupTable(new(UEGroup))},
	{[]string{"ues[].placement"}, placementTable(new(PlacementDecl))},
	{[]string{"ues[].mobility"}, mobilityTable(new(MobilityDecl))},
	{[]string{"ues[].channel"}, channelTable(new(ChannelDecl))},
	{[]string{"ues[].traffic[]", "ues[].uplink[]"}, trafficTable(new(TrafficDecl))},
	{[]string{"master"}, masterTable(new(controller.Options))},
	{[]string{"apps[]"}, appTable(new(AppDecl))},
	{[]string{"apps[].plan[]"}, shareChangeTable(new(broker.ShareChange))},
	{[]string{"slicing[]"}, slicingTable(new(SliceDecl))},
	{[]string{"slices"}, slicesTable(new(SlicesDecl))},
	{[]string{"slices.specs[]"}, sliceSpecTable(new(slice.Spec))},
	{[]string{"faults[]"}, faultTable(new(sim.Fault))},
}

func knobPath(section, key string) string {
	if section == "" {
		return key
	}
	return section + "." + key
}

// TestCorpusCoversEveryKnob fails on any section.key of any field table
// that TestParseErrorCorpus never mutates: a knob added to a table must
// also be set by a library scenario or a testdata/knobs-*.yaml document.
func TestCorpusCoversEveryKnob(t *testing.T) {
	mutated := map[string]bool{}
	for _, doc := range corpusDocs(t) {
		for _, m := range mutants(doc.text) {
			mutated[knobPath(m.section, m.key)] = true
		}
	}
	knobs := 0
	for _, s := range sections {
		for _, f := range s.table {
			knobs++
			covered := false
			for _, p := range s.paths {
				covered = covered || mutated[knobPath(p, f.Key)]
			}
			if !covered {
				t.Errorf("no corpus document sets %s", knobPath(s.paths[0], f.Key))
			}
		}
	}
	t.Logf("%d knobs in %d tables", knobs, len(sections))
}

const (
	referenceBegin = "<!-- knob-reference:begin — generated, do not edit: go test ./internal/scenario -run TestKnobReference -update -->\n"
	referenceEnd   = "<!-- knob-reference:end -->\n"
)

// knobReference renders one line per section.key: the constraint phrase
// the parser reports and the default the section starts from.
func knobReference() string {
	var b strings.Builder
	for _, s := range sections {
		switch {
		case s.paths[0] == "":
			b.WriteString("\nTop level:\n\n")
		case len(s.paths) == 1:
			fmt.Fprintf(&b, "\n`%s`:\n\n", s.paths[0])
		default:
			fmt.Fprintf(&b, "\n`%s` (and the same knobs under `%s`):\n\n", s.paths[0], strings.Join(s.paths[1:], "`, `"))
		}
		for _, f := range s.table {
			fmt.Fprintf(&b, "- `%s` — %s", knobPath(s.paths[0], f.Key), f.What)
			if f.Dst != nil {
				if def := reflect.ValueOf(f.Dst).Elem(); !def.IsZero() {
					fmt.Fprintf(&b, "; default `%v`", def.Interface())
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestKnobReference keeps the "Knob reference" block of scenarios/README.md
// equal to what the field tables say; -update rewrites it.
func TestKnobReference(t *testing.T) {
	readme := filepath.Join("..", "..", "scenarios", "README.md")
	data, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(data, []byte(referenceBegin))
	end := bytes.Index(data, []byte(referenceEnd))
	if begin < 0 || end < begin {
		t.Fatalf("%s has no knob-reference markers", readme)
	}
	begin += len(referenceBegin)
	want := knobReference()
	if string(data[begin:end]) == want {
		return
	}
	if !*update {
		t.Fatalf("%s: the knob reference is out of date with the field tables (run go test ./internal/scenario -run TestKnobReference -update)", readme)
	}
	out := append(append(append([]byte{}, data[:begin]...), want...), data[end:]...)
	if err := os.WriteFile(readme, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
