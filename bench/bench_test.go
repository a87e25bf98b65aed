package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload at 200 TTIs, once untraced and once traced
// from the same seed: every named metric must be emitted with a unit, no
// operation may fail, and the two runs — same inputs, same TTIs — must end
// in the same state. dense-sim and vanilla-sim must also have delivered
// the same downlink bytes at the warm-up checkpoint, the paper's
// Fig. 6b transparency property.
func TestSmoke(t *testing.T) {
	o := runOpts{root: "..", outDir: t.TempDir(), seed: 3, smoke: true}
	if smokeWarm <= checkpointTTIs {
		t.Fatalf("smoke warm-up of %d TTIs never reaches the transparency checkpoint at %d", smokeWarm, checkpointTTIs)
	}
	warmDL := map[string]uint64{}
	for i := range workloads {
		wl := &workloads[i]
		var digests []string
		for _, trace := range []bool{false, true} {
			o.trace = trace
			res, err := runWorkload(wl, o)
			if err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", wl.name, trace, d.name, m, ok, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", wl.name, d.name, m.Value)
				}
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < smokeTTIs {
				t.Errorf("%s trace=%v: attempted %d, failed %d, correct %v", wl.name, trace, res.Attempted, res.Failed, res.Correct)
			}
			digests = append(digests, res.StateDigest)
			warmDL[wl.name] = res.WarmDLBytes
			if trace {
				checkPredictions(t, wl.name, res.Metrics)
				if _, err := os.Stat(o.outDir + "/trace-" + wl.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", wl.name, err)
				}
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: state_digest %s untraced, %s traced, from one seed", wl.name, digests[0], digests[1])
		}
	}
	if warmDL["dense-sim"] == 0 || warmDL["dense-sim"] != warmDL["vanilla-sim"] {
		t.Errorf("transparency: dense-sim delivered %d bytes in warm-up, vanilla-sim %d", warmDL["dense-sim"], warmDL["vanilla-sim"])
	}
}

// checkPredictions holds the layer -> workload predictions of README.md
// that do not depend on how long the run is.
func checkPredictions(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	zero := func(prefixes ...string) {
		for name, v := range m {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) && v.Value != 0 {
					t.Errorf("%s reports %s = %v, predicted none", workload, name, v.Value)
				}
			}
		}
	}
	positive := func(names ...string) {
		for _, name := range names {
			if m[name].Value <= 0 {
				t.Errorf("%s reports %s = %v, predicted work", workload, name, m[name].Value)
			}
		}
	}
	switch workload {
	case "vanilla-sim", "sparse-sim":
		zero("protocol.", "transport.", "controller.", "agent.", "wire.", "sig_", "loop_", "nb_get", "northbound.", "apps.")
		positive("sim.post_apps_us", "enb.step_us", "sim.node_ns")
	case "dense-sim":
		zero("transport.", "loop_", "nb_get", "northbound.")
		positive("sim.pre_apps_us", "protocol.encode_us", "protocol.decode_us", "wire.report_bytes", "sig_up_mbps", "agent.reports_per_tti")
		if m["sim.pre_apps_us"].Value <= m["controller.apps_us"].Value {
			t.Errorf("dense-sim: pre_apps %v us is not above the app slot's %v us", m["sim.pre_apps_us"].Value, m["controller.apps_us"].Value)
		}
	case "tcp-loop":
		zero("sim.", "nb_get", "northbound.")
		positive("loop_p50_us", "transport.send_us", "transport.recv_wait_us", "transport.frames_per_tti",
			"controller.tick_us", "controller.core_us", "controller.cmd_us", "controller.cmds_per_tti", "agent.deliver_us")
	case "ctl-mix":
		zero("transport.", "loop_")
		positive("nb_get_p50_us", "northbound.get_us.slices", "northbound.body_bytes", "controller.watch_events_per_tti", "controller.apps_us")
	}
	if workload == "sparse-sim" {
		positive("sim.w2_tti_us", "scenario.load_us", "scenario.build_us")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Nearest rank: p99 of 1..1000 leaves exactly ten samples beyond it.
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(i + 1)
	}
	if got := percentile(ns, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := percentile(ns, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{20, 10}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("two-sample quartiles = %v, %v, want 7.5, 22.5", q1, q3)
	}
}

func TestQuietQuartileIgnoresDisturbedBlocks(t *testing.T) {
	const per = 10
	ns := make([]int64, blocks*per)
	for i := range ns {
		ns[i] = 100_000 // 100 us, 10,000 TTI/s
		switch b := i / per; {
		case b%2 == 1: // every other block runs into a neighbour's burst
			ns[i] = 140_000
		case b%4 == 0 && i%per == 0: // half the quiet ones lose a time slice once
			ns[i] = 5_000_000
		}
	}
	p50, perS := quietQuartile(ns)
	if p50 != 100 {
		t.Errorf("p50 = %v us, want the undisturbed 100", p50)
	}
	if math.Abs(perS-10000) > 1e-6 {
		t.Errorf("rate = %v TTI/s, want the undisturbed 10000", perS)
	}
	// A slowdown of the program itself moves every block and so the result.
	for i := range ns {
		ns[i] += 20_000
	}
	if p50, _ := quietQuartile(ns); p50 != 120 {
		t.Errorf("p50 after a uniform 20 us slowdown = %v us, want 120", p50)
	}
}

func TestSelfTimeNestedAndAdjacent(t *testing.T) {
	// tti [0,100): enb.step [10,40) holding two adjacent sends [12,20) and
	// [20,25), then tick [50,90) holding apps [60,80) holding a send [65,70).
	spans := []span{
		{Name: "tti", Start: 0, End: 100, Parent: -1},
		{Name: "enb.step", Start: 10, End: 40, Parent: 0},
		{Name: "transport.send", Start: 12, End: 20, Parent: 1},
		{Name: "transport.send", Start: 20, End: 25, Parent: 1},
		{Name: "controller.tick", Start: 50, End: 90, Parent: 0},
		{Name: "controller.apps", Start: 60, End: 80, Parent: 4},
		{Name: "transport.send", Start: 65, End: 70, Parent: 5},
	}
	want := map[string]spanTotals{
		"tti":             {durNs: 100, selfNs: 30, count: 1},
		"enb.step":        {durNs: 30, selfNs: 17, count: 1},
		"transport.send":  {durNs: 18, selfNs: 18, count: 3},
		"controller.tick": {durNs: 40, selfNs: 20, count: 1},
		"controller.apps": {durNs: 20, selfNs: 15, count: 1},
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
	var self int64
	for _, v := range selfTimes(spans) {
		self += v.selfNs
	}
	if self != 100 {
		t.Errorf("self times sum to %d, want the root's 100", self)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer(8)
	tr.begin("tti")
	tr.begin("a")
	tr.begin("a.child")
	tr.end()
	tr.end()
	tr.begin("b")
	tr.end()
	tr.end()
	var parents []int32
	for _, s := range tr.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if want := []int32{-1, 0, 1, 0}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	var nilTracer *tracer
	nilTracer.begin("x") // the untraced run: no-ops, no panic
	nilTracer.end()
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "tti_p50_us", better: "lower", bound: 0.10}
	higher := metricDef{name: "tti_per_s", better: "higher", bound: 0.10}
	tight := func(m float64) spreadOf { return spreadOf{median: m, q1: m * 0.99, q3: m * 1.01, n: 5} }
	wide := func(m float64) spreadOf { return spreadOf{median: m, q1: m * 0.9, q3: m * 1.1, n: 5} }
	for _, c := range []struct {
		d    metricDef
		a, b spreadOf
		want string
	}{
		{lower, tight(100), tight(104), "same"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{lower, tight(100), wide(104), "unresolved"},
		{lower, wide(100), wide(130), "worse"},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.d.name, c.a.median, c.b.median, got, c.want)
		}
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the tables in this
// package saying the same thing.
func TestBenchmarkJSONInStep(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []row
		EndToEnd   []row `json:"end_to_end"`
		PerLayer   []row `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q, table says %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, rows []row, defs []metricDef) {
		if len(rows) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(rows), kind, len(defs))
		}
		for i, r := range rows {
			d := defs[i]
			if r.Name != d.name || r.Unit != d.unit || r.Better != d.better || r.Bound != d.bound {
				t.Errorf("%s metric %d: %+v, table says %+v", kind, i, r, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
