package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/sim"
	"flexran/internal/ue"
)

// minimalDoc is a valid single-eNodeB scenario the error table mutates.
const minimalDoc = `
name: t
run:
  ttis: 100
topology:
  enbs:
    - id: 1
ues:
  - count: 2
    enb: 1
    imsi_base: 100
    channel:
      model: fixed
      cqi: 10
    traffic:
      - kind: cbr
        rate_kbps: 100
`

func TestParseMinimal(t *testing.T) {
	sc, err := Parse(minimalDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sc.Name != "t" || sc.Run.TTIs != 100 || len(sc.ENBs) != 1 || len(sc.UEs) != 1 {
		t.Fatalf("unexpected parse result: %+v", sc)
	}
	if sc.Run.AttachTTIs != DefaultAttachTTIs {
		t.Fatalf("attach_ttis default = %d, want %d", sc.Run.AttachTTIs, DefaultAttachTTIs)
	}
	if sc.Master == nil || sc.Master.StatsPeriodTTI != 1 {
		t.Fatalf("master defaults not applied: %+v", sc.Master)
	}
}

// TestListItemOpensWithNestedKey: a ues item may open with its channel
// block, and reads as the same item written with a scalar key first.
func TestListItemOpensWithNestedKey(t *testing.T) {
	ref, err := Parse(minimalDoc)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(strings.Replace(minimalDoc, `  - count: 2
    enb: 1
    imsi_base: 100
    channel:
      model: fixed
      cqi: 10
`, `  - channel:
      model: fixed
      cqi: 10
    count: 2
    enb: 1
    imsi_base: 100
`, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.UEs, ref.UEs) {
		t.Fatalf("ues = %+v\n want %+v", sc.UEs, ref.UEs)
	}
}

// TestMasterSectionDecodesOverDefaults: the master section is a
// controller.Options seeded by DefaultOptions, so one key changes its own
// field and nothing else.
func TestMasterSectionDecodesOverDefaults(t *testing.T) {
	sc, err := Parse(minimalDoc + "master:\n  echo_miss_budget: 7\n")
	if err != nil {
		t.Fatal(err)
	}
	want := controller.DefaultOptions()
	want.EchoMissBudget = 7
	if *sc.Master != want {
		t.Fatalf("master = %+v\n    want %+v", *sc.Master, want)
	}
}

// TestFaultKindsDecodeByName: every fault kind is spelled as
// sim.FaultKind's String spells it, and its at stays an offset.
func TestFaultKindsDecodeByName(t *testing.T) {
	doc := minimalDoc + "faults:\n"
	var want []sim.FaultKind
	for _, k := range []sim.FaultKind{
		sim.FaultLinkCut, sim.FaultLinkRestore, sim.FaultAgentRestart,
		sim.FaultNetemSet, sim.FaultAgentStall, sim.FaultAgentResume,
	} {
		doc += fmt.Sprintf("  - at: %d\n    kind: %s\n    enb: 1\n", 10+len(want), k)
		if k == sim.FaultNetemSet {
			doc += "    to_agent:\n      loss: 0.5\n"
		}
		want = append(want, k)
	}
	sc, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range sc.Faults {
		if f.Kind != want[i] || f.At != lte.Subframe(10+i) || f.ENB != 1 {
			t.Errorf("faults[%d] = %+v, want kind %v at %d", i, f, want[i], 10+i)
		}
	}
	if ne := sc.Faults[3].ToAgent; ne == nil || ne.LossProb != 0.5 || sc.Faults[3].ToMaster != nil {
		t.Errorf("netem_set directions = %v, %v", sc.Faults[3].ToMaster, ne)
	}
}

// TestValidationErrors pins the exact error text of every declarative
// misconfiguration the parser guards against: the messages are the user
// interface of the scenario engine.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			name: "unknown top-level key",
			doc:  "name: t\nbogus: 1\nrun:\n  ttis: 10\n",
			want: `scenario: unknown top-level key "bogus"`,
		},
		{
			name: "missing name",
			doc:  "run:\n  ttis: 10\ntopology:\n  enbs:\n    - id: 1\n",
			want: "scenario: name is required",
		},
		{
			name: "missing run ttis",
			doc:  "name: t\ntopology:\n  enbs:\n    - id: 1\n",
			want: "scenario: run.ttis is required",
		},
		{
			name: "non-positive ttis",
			doc:  "name: t\nrun:\n  ttis: 0\n",
			want: "scenario: run.ttis must be a positive integer",
		},
		{
			name: "no eNodeBs",
			doc:  "name: t\nrun:\n  ttis: 10\n",
			want: "scenario: topology declares no eNodeBs",
		},
		{
			name: "unknown run knob",
			doc:  "name: t\nrun:\n  ttis: 10\n  warp_factor: 9\n",
			want: `scenario: run has no knob "warp_factor"`,
		},
		{
			name: "UE group naming count twice",
			doc:  strings.Replace(minimalDoc, "    enb: 1\n", "    enb: 1\n    count: 3\n", 1),
			want: `scenario: yamlite: line 11: duplicate key "count"`,
		},
		{
			name: "duplicate eNodeB id",
			doc:  "name: t\nrun:\n  ttis: 10\ntopology:\n  enbs:\n    - id: 1\n    - id: 1\n",
			want: "scenario: duplicate eNodeB id 1",
		},
		{
			name: "unknown app kind",
			doc: minimalDoc + `
apps:
  - kind: chaos-monkey
`,
			want: `scenario: apps[0]: unknown app kind "chaos-monkey"`,
		},
		{
			name: "traffic shares not summing to 1",
			doc: strings.Replace(minimalDoc, `    traffic:
      - kind: cbr
        rate_kbps: 100
`, `    traffic:
      - kind: cbr
        share: 0.5
        rate_kbps: 100
      - kind: full_buffer
        share: 0.4
`, 1),
			want: "scenario: ues[0].traffic: shares sum to 0.900, want 1.0",
		},
		{
			name: "unknown traffic kind",
			doc: strings.Replace(minimalDoc, "kind: cbr\n        rate_kbps: 100",
				"kind: torrent", 1),
			want: `scenario: ues[0].traffic[0]: unknown traffic kind "torrent"`,
		},
		{
			name: "fault beyond run length",
			doc: minimalDoc + `
faults:
  - at: 500
    kind: link_cut
    enb: 1
`,
			want: "scenario: faults[0]: at TTI 500 beyond run length 100",
		},
		{
			name: "fault on unknown eNodeB",
			doc: minimalDoc + `
faults:
  - at: 50
    kind: link_cut
    enb: 9
`,
			want: "scenario: faults[0].enb: unknown eNodeB 9",
		},
		{
			name: "unknown fault kind",
			doc: minimalDoc + `
faults:
  - at: 50
    kind: emp_blast
    enb: 1
`,
			want: `scenario: faults[0]: unknown fault kind "emp_blast"`,
		},
		{
			name: "UE group on unknown eNodeB",
			doc:  strings.Replace(minimalDoc, "enb: 1\n    imsi_base: 100", "enb: 7\n    imsi_base: 100", 1),
			want: "scenario: ues[0].enb: unknown eNodeB 7",
		},
		{
			name: "IMSI collision between groups",
			doc: minimalDoc + `  - count: 1
    enb: 1
    imsi_base: 101
    channel:
      model: fixed
      cqi: 5
    traffic:
      - kind: full_buffer
`,
			want: "scenario: ues[1]: IMSI 101 collides with another group",
		},
		{
			name: "unknown channel model",
			doc: strings.Replace(minimalDoc, "model: fixed\n      cqi: 10",
				"model: quantum", 1),
			want: `scenario: ues[0].channel.model: unknown channel model "quantum"`,
		},
		{
			name: "geo channel without radio map",
			doc: strings.Replace(minimalDoc, "model: fixed\n      cqi: 10",
				"model: geo", 1),
			want: "scenario: ues[0]: the geo channel model needs radio-map sites (power_dbm on eNodeBs)",
		},
		{
			name: "explicit geo channel on a siteless eNodeB",
			doc: strings.Replace(strings.Replace(minimalDoc,
				"    - id: 1", "    - id: 1\n    - id: 2\n      power_dbm: 43", 1),
				`    channel:
      model: fixed
      cqi: 10`, `    placement:
      at: [10, 10]
    channel:
      model: geo`, 1),
			want: "scenario: ues[0]: eNodeB 1 has no radio-map site for the geo channel",
		},
		{
			name: "auto channel on enb all with a siteless eNodeB",
			doc: strings.Replace(strings.Replace(minimalDoc,
				"    - id: 1", "    - id: 1\n    - id: 2\n      power_dbm: 43", 1),
				`    enb: 1
    imsi_base: 100
    channel:
      model: fixed
      cqi: 10`, `    enb: all
    imsi_base: 100
    placement:
      at: [10, 10]`, 1),
			want: "scenario: ues[0]: eNodeB 1 has no radio-map site for the geo channel",
		},
		{
			name: "moving UE on a fixed channel",
			doc: strings.Replace(minimalDoc, "    channel:", `    mobility:
      model: random_waypoint
      speed_mps: 10
    channel:`, 1),
			want: `scenario: ues[0]: a moving UE needs a geo channel, not "fixed"`,
		},
		{
			name: "unknown mobility model",
			doc: strings.Replace(minimalDoc, "    channel:", `    mobility:
      model: teleport
    channel:`, 1),
			want: `scenario: ues[0].mobility.model: unknown mobility model "teleport"`,
		},
		{
			name: "app without master",
			doc: minimalDoc + `master: none
apps:
  - kind: monitor
`,
			want: `scenario: apps[0]: apps need a master (remove "master: none")`,
		},
		{
			name: "slicing shares over 1",
			doc: minimalDoc + `slicing:
  - enb: 1
    shares: [0.8, 0.7]
`,
			want: "scenario: slicing[0].shares sum to 1.500, want <= 1.0",
		},
		{
			name: "slicing on unknown eNodeB",
			doc: minimalDoc + `slicing:
  - enb: 3
    shares: [0.5, 0.5]
`,
			want: "scenario: slicing[0].enb: unknown eNodeB 3",
		},
		{
			name: "ransharing without enb",
			doc: minimalDoc + `apps:
  - kind: ransharing
    plan:
      - at: 10
        shares: [0.5, 0.5]
`,
			want: "scenario: apps[0].enb is required for ransharing",
		},
		{
			name: "netem loss out of range",
			doc: strings.Replace(minimalDoc, "    - id: 1", `    - id: 1
      to_master:
        loss: 1.5`, 1),
			want: "scenario: topology.enbs[0].to_master.loss must be a probability in [0, 1]",
		},
		{
			name: "netem burst_loss out of range",
			doc: strings.Replace(minimalDoc, "    - id: 1", `    - id: 1
      to_master:
        burst_loss: 1.2`, 1),
			want: "scenario: topology.enbs[0].to_master.burst_loss must be a probability in [0, 1]",
		},
		{
			name: "netem stall_tti negative",
			doc: strings.Replace(minimalDoc, "    - id: 1", `    - id: 1
      to_agent:
        stall_tti: -5`, 1),
			want: "scenario: topology.enbs[0].to_agent.stall_tti must be a non-negative integer",
		},
		{
			name: "netem_set without a direction",
			doc: minimalDoc + `
faults:
  - at: 50
    kind: netem_set
    enb: 1
`,
			want: "scenario: faults[0]: netem_set needs a to_master or to_agent direction",
		},
		{
			name: "netem_set with a bad knob",
			doc: minimalDoc + `
faults:
  - at: 50
    kind: netem_set
    enb: 1
    to_agent:
      dup: 2
`,
			want: "scenario: faults[0].to_agent.dup must be a probability in [0, 1]",
		},
		{
			name: "fault without kind",
			doc: minimalDoc + `
faults:
  - at: 50
    enb: 1
`,
			want: "scenario: faults[0].kind is required",
		},
		{
			name: "agent_resume without a stall",
			doc: minimalDoc + `
faults:
  - at: 50
    kind: agent_resume
    enb: 1
`,
			want: "scenario: faults[0]: agent_resume for eNodeB 1 without a preceding agent_stall",
		},
		{
			name: "negative master health knob",
			doc: minimalDoc + `
master:
  health_period_tti: -1
`,
			want: "scenario: master.health_period_tti must be a non-negative integer",
		},
		{
			name: "cqi out of range",
			doc:  strings.Replace(minimalDoc, "cqi: 10", "cqi: 19", 1),
			want: "scenario: ues[0].channel.cqi must be a CQI in [1, 15]",
		},
		{
			name: "group without traffic",
			doc: strings.Replace(minimalDoc, `    traffic:
      - kind: cbr
        rate_kbps: 100
`, "", 1),
			want: "scenario: ues[0] declares no traffic",
		},
		{
			name: "IMSI collision reports the lowest shared IMSI",
			doc: strings.Replace(minimalDoc, "imsi_base: 100", "imsi_base: 200", 1) + `  - count: 5
    enb: 1
    imsi_base: 100
    traffic:
      - kind: full_buffer
  - count: 150
    enb: 1
    imsi_base: 98
    traffic:
      - kind: full_buffer
`,
			want: "scenario: ues[2]: IMSI 100 collides with another group",
		},
		// Hostile sizes (testdata/hostile, also fed to flexran-scn validate
		// in CI): each used to panic, hang or be misreported.
		{
			name: "honeycomb rings beyond the limit",
			doc:  hostileDoc(t, "honeycomb-rings.yaml"),
			want: "scenario: topology.honeycomb.rings: 3000000000 exceeds the limit of 147 rings",
		},
		{
			name: "grid eNodeBs beyond the limit",
			doc:  hostileDoc(t, "grid-enbs.yaml"),
			want: "scenario: topology.grid.enbs: 4000000000000 exceeds the limit of 65536 eNodeBs",
		},
		{
			name: "UE count beyond the limit",
			doc:  hostileDoc(t, "ue-count.yaml"),
			want: "scenario: ues[0].count: the document declares more than the limit of 4194304 UEs",
		},
		{
			name: "eNodeB id beyond 32 bits",
			doc:  hostileDoc(t, "enb-id.yaml"),
			want: "scenario: topology.enbs[1].id must be a positive integer",
		},
		{
			name: "UE count beyond the limit through enb all",
			doc: strings.Replace(strings.Replace(minimalDoc, "    - id: 1", "    - id: 1\n    - id: 2\n    - id: 3", 1),
				"count: 2\n    enb: 1", "count: 2000000\n    enb: all", 1),
			want: "scenario: ues[0].count: the document declares more than the limit of 4194304 UEs",
		},
		{
			name: "run seconds beyond the limit",
			doc:  strings.Replace(minimalDoc, "ttis: 100", "seconds: 1e300", 1),
			want: "scenario: run.seconds: 1e+300 exceeds the limit of 2147483 seconds",
		},
		{
			name: "cell beyond 16 bits",
			doc:  strings.Replace(minimalDoc, "    enb: 1\n", "    enb: 1\n    cell: 65536\n", 1),
			want: "scenario: ues[0].cell must be a non-negative integer",
		},
		{
			name: "NaN probability",
			doc: strings.Replace(minimalDoc, "    - id: 1", `    - id: 1
      to_master:
        loss: NaN`, 1),
			want: "scenario: topology.enbs[0].to_master.loss must be a probability in [0, 1]",
		},
		{
			name: "infinite coordinate",
			doc:  strings.Replace(minimalDoc, "    - id: 1", "    - id: 1\n      x: -Inf", 1),
			want: "scenario: topology.enbs[0].x must be a number",
		},
		{
			name: "NaN slicing share",
			doc: minimalDoc + `slicing:
  - enb: 1
    shares: [NaN, 0.5]
`,
			want: "scenario: slicing[0].shares must be a float sequence",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.doc)
			if err == nil {
				t.Fatalf("Parse accepted invalid document")
			}
			if err.Error() != tc.want {
				t.Fatalf("error = %q\n      want %q", err.Error(), tc.want)
			}
		})
	}
}

func hostileDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "hostile", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestValidationIsQuick holds the cross-section checks to the size of the
// document, not of the world it declares: the largest legal UE population
// validates without a per-UE table.
func TestValidationIsQuick(t *testing.T) {
	doc := strings.Replace(minimalDoc, "count: 2", fmt.Sprint("count: ", maxUEs), 1)
	start := time.Now()
	if _, err := Parse(doc); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Parse took %v for a 17-line document", d)
	}
}

// TestTrafficMixAssignment checks the deterministic largest-prefix
// assignment of mix components to UE indices.
func TestTrafficMixAssignment(t *testing.T) {
	mix := []TrafficDecl{
		{Kind: "cbr", Share: 0.5, RateKbps: 100},
		{Kind: "full_buffer", Share: 0.3},
		{Kind: "onoff", Share: 0.2, RateKbps: 50, OnTTI: 10, OffTTI: 10},
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		switch buildGenerator(mix, 1, uint64(i), i, 10).(type) {
		case *ue.CBR:
			counts["cbr"]++
		case *ue.FullBuffer:
			counts["full_buffer"]++
		case *ue.OnOff:
			counts["onoff"]++
		default:
			counts["other"]++
		}
	}
	if counts["cbr"] != 5 || counts["full_buffer"] != 3 || counts["onoff"] != 2 {
		t.Fatalf("mix assignment = %v, want map[cbr:5 full_buffer:3 onoff:2]", counts)
	}
}

// TestScenarioFilesValidate parses every shipped scenario file: the
// library must never drift out of sync with the parser.
func TestScenarioFilesValidate(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no scenarios directory: %v", err)
	}
	seen := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".yaml" {
			continue
		}
		seen++
		if _, err := Load(filepath.Join(dir, e.Name())); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
	if seen == 0 {
		t.Fatal("scenarios directory holds no .yaml files")
	}
}
