package main

import "fmt"

// metricDef names one reported metric. The two tables below are the single
// source of the names, units, directions and regression bounds; the
// BENCHMARK.json at the repository root repeats them (a test keeps the two
// in step) and -compare judges with them.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none: they explain, they do not gate.
	bound float64
}

// endToEnd is what a user of the platform sees, measured with tracing off,
// on every workload. The bounds are set from the spread over ten seeds on
// the reference host, a shared VM whose neighbours slow it by 10-40 % for
// seconds to half a minute at a time: quiet, the time metrics spread 2-5 %;
// under a neighbour (or an emulated one) up to 12 %, so their bound is the
// widest the contract allows. See README.md.
//
// The issue's other user-visible metrics lead the per-layer table instead
// of standing here, for two different reasons. Control-loop latency,
// signalling rate and northbound GET latency exist on some workloads only,
// and the contract wants every end-to-end metric from every workload and
// never zero. tti_p99_us exists everywhere but does not repeat: on
// dense-sim it sits on the edge of the GC-disturbed TTIs, and whether the
// collector's second processor is free moves it from 3.0 ms to 4.4 ms on the
// same code and seed (spread above a tenth, which the issue says demotes it).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tti_per_s", "TTI/s", "higher", 0.25},
	{"tti_p50_us", "us", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
}

// userVisible counts the leading per-layer rows that are user-visible
// metrics (see endToEnd); an untraced run prints them as extras.
const userVisible = 7

// perLayer is the traced run's output, <module>.<metric>.
var perLayer = []metricDef{
	// User-visible (see endToEnd). Measured on the untraced half of the
	// traced run.
	{name: "tti_p99_us", unit: "us", better: "lower"},
	{name: "loop_p50_us", unit: "us", better: "lower"},
	{name: "loop_p99_us", unit: "us", better: "lower"},
	{name: "sig_up_mbps", unit: "Mb/s", better: "lower"},
	{name: "sig_down_mbps", unit: "Mb/s", better: "lower"},
	{name: "nb_get_p50_us", unit: "us", better: "lower"},
	{name: "nb_get_p99_us", unit: "us", better: "lower"},

	{name: "sim.step_us", unit: "us", better: "lower"},
	{name: "sim.pre_apps_us", unit: "us", better: "lower"},
	{name: "controller.apps_us", unit: "us", better: "lower"},
	{name: "sim.post_apps_us", unit: "us", better: "lower"},
	{name: "sim.node_ns", unit: "ns", better: "lower"},
	{name: "sim.w2_tti_us", unit: "us", better: "lower"},
	{name: "conc.forkjoin_us", unit: "us", better: "lower"},

	{name: "protocol.encode_us", unit: "us", better: "lower"},
	{name: "protocol.decode_us", unit: "us", better: "lower"},
	{name: "protocol.msgs_per_tti", unit: "1/TTI", better: "lower"},
	{name: "wire.report_bytes", unit: "B", better: "lower"},

	{name: "transport.send_us", unit: "us", better: "lower"},
	{name: "transport.recv_wait_us", unit: "us", better: "lower"},
	{name: "transport.frames_per_tti", unit: "1/TTI", better: "lower"},
	{name: "transport.bytes_per_tti", unit: "B/TTI", better: "lower"},
	{name: "transport.corrupted", unit: "count", better: "lower"},

	{name: "controller.tick_us", unit: "us", better: "lower"},
	{name: "controller.core_us", unit: "us", better: "lower"},
	{name: "controller.cmd_us", unit: "us", better: "lower"},
	{name: "controller.cmds_per_tti", unit: "1/TTI", better: "lower"},
	{name: "controller.cmds_failed", unit: "count", better: "lower"},
	{name: "controller.watch_events_per_tti", unit: "1/TTI", better: "lower"},
	{name: "controller.watch_overflows", unit: "count", better: "lower"},

	{name: "agent.deliver_us", unit: "us", better: "lower"},
	{name: "agent.reports_per_tti", unit: "1/TTI", better: "lower"},
	{name: "agent.dropped_sends", unit: "count", better: "lower"},

	{name: "enb.step_us", unit: "us", better: "lower"},
	{name: "sched.schedule_us", unit: "us", better: "lower"},
	{name: "epc.inject_us", unit: "us", better: "lower"},

	{name: "apps.handovers_per_ktti", unit: "1/kTTI", better: "higher"},
	{name: "apps.broker_epochs", unit: "count", better: "higher"},
	{name: "apps.broker_applied", unit: "count", better: "higher"},
	{name: "northbound.get_us.rib_agents", unit: "us", better: "lower"},
	{name: "northbound.get_us.rib_enb", unit: "us", better: "lower"},
	{name: "northbound.get_us.slices", unit: "us", better: "lower"},
	{name: "northbound.get_us.apps", unit: "us", better: "lower"},
	{name: "northbound.get_us.health", unit: "us", better: "lower"},
	{name: "northbound.body_bytes", unit: "B", better: "lower"},

	{name: "scenario.load_us", unit: "us", better: "lower"},
	{name: "scenario.build_us", unit: "us", better: "lower"},

	{name: "runtime.allocs_per_tti", unit: "1/TTI", better: "lower"},
	{name: "runtime.bytes_per_tti", unit: "B/TTI", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's values against a definition table: every
// defined metric is present (zero when the workload has no such work) and
// nothing undefined can be set.
type metricSet map[string]metric

func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.name] = metric{Unit: d.unit}
	}
	return ms
}

func (ms metricSet) set(name string, v float64) {
	m, ok := ms[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the table", name))
	}
	m.Value = v
	ms[name] = m
}
