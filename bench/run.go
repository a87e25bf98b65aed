package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"flexran/internal/scenario"
)

// runOpts is one invocation's settings.
type runOpts struct {
	root    string // repository root, for scenarios/
	outDir  string // where the span files go
	seed    int64
	seconds int
	trace   bool
	// smoke shrinks every count to a functional check: 200 timed TTIs, a
	// 60-TTI warm-up, one set-up and short probes.
	smoke bool
}

const (
	setupRepeats = 3
	smokeTTIs    = 200
	smokeWarm    = 60
)

// result is one run of one workload.
type result struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Trace       int       `json:"trace"`
	TTIs        int       `json:"ttis"`
	Samples     int       `json:"tti_samples"`
	WallS       float64   `json:"wall_s"`
	Correct     bool      `json:"correct"`
	Attempted   int64     `json:"attempted"`
	Failed      int64     `json:"failed"`
	StateDigest string    `json:"state_digest"`
	WarmDLBytes uint64    `json:"warm_dl_bytes"`
	Metrics     metricSet `json:"metrics"`
	// Extra holds the workload-specific user-visible metrics on an
	// untraced run, where they are measured but not part of the contract
	// line (the traced run reports them among the per-layer metrics).
	Extra metricSet `json:"extra,omitempty"`
}

// ttis is the fixed amount of timed work for a run length.
func (wl *workload) ttis(o runOpts) (timed, warm int) {
	if o.smoke {
		return smokeTTIs, smokeWarm
	}
	return wl.ttisPerSec * o.seconds, wl.warmTTIs
}

// runWorkload sets the workload up, measures it and checks its outputs.
func runWorkload(wl *workload, o runOpts) (*result, error) {
	begin := time.Now()
	timed, warm := wl.ttis(o)
	repeats := setupRepeats
	if o.smoke {
		repeats = 1
	}
	w, setupS, err := wl.setup(o.seed, warm, repeats)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{Workload: wl.name, Seed: o.seed, TTIs: timed}
	if sw, ok := w.(*simWorld); ok {
		res.WarmDLBytes = sw.dlAtCheckpoint
	}
	runtime.GC()
	if o.trace {
		res.Trace = 1
		if err := res.measureTraced(w, wl, o, warm); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	} else {
		res.measureUntraced(w, setupS)
	}
	res.Correct = res.Failed == 0
	res.WallS = time.Since(begin).Seconds()
	return res, nil
}

// measureUntraced times the whole fixed work with tracing off: the
// end-to-end metrics.
func (res *result) measureUntraced(w world, setupS float64) {
	sec := runSection(w, res.TTIs, nil, make([]int64, res.TTIs))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.Metrics = newMetricSet(endToEnd)
	res.Metrics.set("setup_s", setupS)
	res.Metrics.set("tti_per_s", sec.ttiPerS)
	res.Metrics.set("tti_p50_us", sec.ttiP50us)
	res.Metrics.set("heap_mb", float64(mem.HeapAlloc)/1e6)
	res.Extra = newMetricSet(perLayer[:userVisible])
	setUserVisible(res.Extra, &sec)
	res.Samples = sec.tti.n
	res.Attempted, res.Failed = sec.ops(), sec.failed
	res.StateDigest = fmt.Sprintf("%016x", w.digest())
}

// measureTraced runs the first half of the fixed work untraced and the
// second half with the tracer on, so one run yields the per-layer numbers,
// the untraced figures they are compared with, and the tracing overhead
// between the two; then it replays the probes on the spent world.
func (res *result) measureTraced(w world, wl *workload, o runOpts, warm int) error {
	half := res.TTIs / 2
	ttiNs := make([]int64, res.TTIs-half)
	plain := runSection(w, half, nil, ttiNs)
	tr := newTracer(32 * (res.TTIs - half))
	traced := runSection(w, res.TTIs-half, tr, ttiNs)
	res.Samples = traced.tti.n
	res.Attempted, res.Failed = plain.ops()+traced.ops(), plain.failed+traced.failed
	res.StateDigest = fmt.Sprintf("%016x", w.digest())

	pl := newMetricSet(perLayer)
	res.Metrics = pl
	setUserVisible(pl, &plain)
	setRuntime(pl, &plain)
	setCounts(pl, &traced, w)
	totals := selfTimes(tr.spans)
	setSpans(pl, totals, &traced, w)
	pl.set("trace.overhead_pct", 100*(traced.ttiP50us-plain.ttiP50us)/plain.ttiP50us)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(o.outDir, "trace-"+wl.name+".json"), tr.spans, totals, traced.ttis); err != nil {
		return err
	}

	iters := 2000
	if o.smoke {
		iters = 50
	}
	p, err := runProbes(w, iters)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	setProbes(pl, &p, wl.name != "tcp-loop")
	if wl.name == "sparse-sim" {
		// The sparse world is the library's scale-4096enb scenario in
		// miniature, and the one where a second worker matters.
		if err := timeScenario(o.root, pl); err != nil {
			return err
		}
		us, err := timeW2(wl, o.seed, warm, min(res.TTIs, 2000))
		if err != nil {
			return err
		}
		pl.set("sim.w2_tti_us", us)
	}
	return nil
}

// setUserVisible fills the user-visible metrics of the per-layer table.
func setUserVisible(ms metricSet, s *section) {
	ms.set("tti_p99_us", s.tti.p99us)
	ms.set("loop_p50_us", s.loop.p50us)
	ms.set("loop_p99_us", s.loop.p99us)
	ms.set("sig_up_mbps", s.sigMbps(s.c.upBytes))
	ms.set("sig_down_mbps", s.sigMbps(s.c.downBytes))
	ms.set("nb_get_p50_us", s.get.p50us)
	ms.set("nb_get_p99_us", s.get.p99us)
}

func setRuntime(ms metricSet, s *section) {
	ms.set("runtime.allocs_per_tti", float64(s.mallocs)/float64(s.ttis))
	ms.set("runtime.bytes_per_tti", float64(s.allocBytes)/float64(s.ttis))
	ms.set("runtime.gc_cycles", float64(s.gcCycles))
	ms.set("runtime.gc_pause_ms", float64(s.gcPause)/1e6)
}

// setCounts fills the count metrics of the traced section.
func setCounts(ms metricSet, s *section, w world) {
	c := &s.c
	ms.set("protocol.msgs_per_tti", s.perTTI(c.upMsgs+c.downMsgs))
	ms.set("controller.cmds_per_tti", s.perTTI(c.cmds))
	ms.set("controller.cmds_failed", float64(c.cmdsFailed))
	ms.set("controller.watch_events_per_tti", s.perTTI(c.watchEvents))
	ms.set("controller.watch_overflows", float64(c.watchOverflows))
	ms.set("agent.reports_per_tti", s.perTTI(c.reports))
	ms.set("agent.dropped_sends", float64(c.droppedSends))
	ms.set("apps.handovers_per_ktti", 1000*s.perTTI(c.handovers))
	ms.set("apps.broker_epochs", float64(c.brokerEpochs))
	ms.set("apps.broker_applied", float64(c.brokerApplied))
	if c.gets > 0 {
		ms.set("northbound.body_bytes", float64(c.bodyBytes)/float64(c.gets))
	}
	for i, ep := range nbEndpoints {
		ms.set("northbound.get_us."+ep.name, s.getEach[i].p50us)
	}
	if _, tcp := w.(*tcpWorld); tcp {
		ms.set("transport.frames_per_tti", s.perTTI(c.upMsgs+c.downMsgs))
		ms.set("transport.bytes_per_tti", s.perTTI(c.upBytes+c.downBytes))
		ms.set("transport.corrupted", float64(c.corrupted))
	}
}

// setSpans turns the traced section's spans into per-TTI mean times:
// inclusive duration per TTI for a boundary the TTI crosses once or more
// (send, recv_wait, tick, core, deliver, the Sim.Step thirds), mean per
// span for a per-eNodeB layer (enb.step, epc.inject). controller.cmd_us is
// the application slot's self time on tcp-loop: deciding and building the
// commands, without the Conn.Send spans that carry them.
func setSpans(ms metricSet, tot map[string]spanTotals, s *section, w world) {
	perTTI := func(ns int64) float64 { return float64(ns) / 1e3 / float64(s.ttis) }
	for span, name := range map[string]string{
		"sim.step":            "sim.step_us",
		"sim.pre_apps":        "sim.pre_apps_us",
		"sim.post_apps":       "sim.post_apps_us",
		"controller.apps":     "controller.apps_us",
		"transport.send":      "transport.send_us",
		"transport.recv_wait": "transport.recv_wait_us",
		"controller.tick":     "controller.tick_us",
		"controller.core":     "controller.core_us",
		"agent.deliver":       "agent.deliver_us",
	} {
		ms.set(name, perTTI(tot[span].durNs))
	}
	switch w := w.(type) {
	case *tcpWorld:
		ms.set("controller.cmd_us", perTTI(tot["controller.apps"].selfNs))
		for span, name := range map[string]string{"enb.step": "enb.step_us", "epc.inject": "epc.inject_us"} {
			if t := tot[span]; t.count > 0 {
				ms.set(name, float64(t.durNs)/1e3/float64(t.count))
			}
		}
	case *simWorld:
		ms.set("sim.node_ns", s.ttiP50us*1e3/float64(len(w.s.Nodes)))
	}
}

// setProbes fills the replayed-probe metrics. tcp-loop keeps its span
// measurements of the eNodeB step and the injection (dataPlane false).
func setProbes(ms metricSet, p *probes, dataPlane bool) {
	ms.set("protocol.encode_us", p.encodeUs)
	ms.set("protocol.decode_us", p.decodeUs)
	ms.set("wire.report_bytes", float64(p.reportBytes))
	ms.set("sched.schedule_us", p.schedUs)
	ms.set("conc.forkjoin_us", p.forkjoinUs)
	if dataPlane {
		ms.set("enb.step_us", p.enbStepUs)
		ms.set("epc.inject_us", p.injectUs)
	}
}

// timeW2 builds the workload's world once more on a two-worker engine and
// returns its median TTI. Informational: fork-join across two workers
// spreads two-fold from run to run, which is why every other number pins
// the engine to one worker.
func timeW2(wl *workload, seed int64, warm, ttis int) (float64, error) {
	w, err := wl.build(seed, warm, 2)
	if err != nil {
		return 0, err
	}
	defer w.close()
	sec := runSection(w, ttis, nil, make([]int64, ttis))
	return sec.tti.p50us, nil
}

// timeScenario times parsing and wiring the largest library scenario, the
// two set-up layers a scenario user pays before the first TTI.
func timeScenario(root string, ms metricSet) error {
	t0 := time.Now()
	sc, err := scenario.Load(filepath.Join(root, "scenarios", "scale-4096enb.yaml"))
	if err != nil {
		return err
	}
	ms.set("scenario.load_us", float64(time.Since(t0))/1e3)
	t0 = time.Now()
	if _, err := sc.Build(1); err != nil {
		return err
	}
	ms.set("scenario.build_us", float64(time.Since(t0))/1e3)
	return nil
}

// checkGoldens replays three library scenarios on the serial engine and
// compares their digests with scenarios/GOLDENS.txt: a program whose
// outputs moved fails the run before any time is reported.
func checkGoldens(root string) error {
	f, err := os.Open(filepath.Join(root, "scenarios", "GOLDENS.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 && !strings.HasPrefix(fields[0], "#") {
			golden[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, name := range []string{"quickstart", "mobility-loadbalance", "elastic-slicing"} {
		s, err := scenario.Load(filepath.Join(root, "scenarios", name+".yaml"))
		if err != nil {
			return err
		}
		r, err := s.RunWorkers(1)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		if r.Summary.Digest != golden[name] {
			return fmt.Errorf("scenario %s: digest %s, golden %q", name, r.Summary.Digest, golden[name])
		}
	}
	return nil
}
