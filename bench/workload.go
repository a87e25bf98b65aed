package main

import (
	"fmt"
	"runtime"
	"time"

	"flexran"
)

// A workload is one closed-loop, fixed-work world: a single driver runs a
// fixed number of lock-step TTIs (the next TTI starts when the previous
// one has fully completed), so counts repeat exactly and the times are the
// program's. ttisPerSec sizes the timed section: -seconds S runs
// ttisPerSec x S TTIs, about S seconds on the 2-vCPU reference host.
type workload struct {
	name, why  string
	ttisPerSec int
	warmTTIs   int
	build      func(seed int64, warmTTIs, workers int) (world, error)
}

// workloads lists the five worlds in the order they are reported. The
// warm-up lengths are scaled like the TTI counts: set-up runs three times
// per invocation and must leave most of the time cap to the timed section.
var workloads = []workload{
	{
		name: "dense-sim", ttisPerSec: 450, warmTTIs: 300,
		why: "64 agents x 32 UEs, full stats every TTI: the control plane is most of this TTI, so report encoding, decoding and the RIB updater show here",
		build: func(seed int64, warm, workers int) (world, error) {
			return buildSim(denseSpecs(seed, true), simOptions{master: true, workers: workers, warmTTIs: warm})
		},
	},
	{
		name: "vanilla-sim", ttisPerSec: 1700, warmTTIs: 1300,
		why: "the identical world with no agents and no master: only the data plane runs, so control-plane work must not show and dense minus vanilla is the agent overhead",
		build: func(seed int64, warm, workers int) (world, error) {
			return buildSim(denseSpecs(seed, false), simOptions{workers: workers, warmTTIs: warm})
		},
	},
	{
		name: "sparse-sim", ttisPerSec: 12500, warmTTIs: 2000,
		why: "4096 master-less eNodeBs, 1% active: a TTI is almost all per-node engine bookkeeping, so any fixed per-TTI or per-node cost is undiluted",
		build: func(seed int64, warm, workers int) (world, error) {
			return buildSim(sparseSpecs(seed), simOptions{workers: workers, warmTTIs: warm})
		},
	},
	{
		name: "tcp-loop", ttisPerSec: 6500, warmTTIs: 2000,
		why: "2 agents x 32 UEs over loopback TCP with a remote scheduler commanding every TTI: framing, CRC, syscalls, reader hand-off and the command path, the only place transport changes show",
		build: func(seed int64, warm, _ int) (world, error) {
			return buildTCP(seed, warm)
		},
	},
	{
		name: "ctl-mix", ttisPerSec: 1300, warmTTIs: 1000,
		why: "16 agents, mobile UEs, mobility manager + slice broker + monitor, a watch subscriber and northbound GETs: events, handovers, app slot and RIB reads beside RIB writes",
		build: func(seed int64, warm, workers int) (world, error) {
			return buildSim(ctlSpecs(seed), simOptions{master: true, statsPeriod: 2, ctl: true, workers: workers, warmTTIs: warm})
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// world is a built, attached and warmed-up workload instance.
type world interface {
	setTracer(*tracer)
	tti()
	// check returns how many per-TTI invariants are broken right now.
	check() int
	counters() counters
	samples() samples
	resetSamples()
	deliveredDL() uint64
	digest() uint64
	// probeTarget is one eNodeB with downlink traffic, its UE specs, the
	// EPC that feeds it and its agent (nil without a control plane), for
	// the replayed per-layer probes. The world is spent afterwards.
	probeTarget() (*flexran.ENB, []flexran.UESpec, *flexran.EPC, *flexran.Agent)
	close()
}

// counters are the monotonic counts a world exposes; a section reports the
// difference between its end and its start.
type counters struct {
	upBytes, downBytes, upMsgs, downMsgs   int64 // metered agent->master / master->agent
	reports, cmds, droppedSends, corrupted int64 // stats reports up, commands down
	watchEvents, watchOverflows            int64
	handovers, brokerEpochs, brokerApplied int64
	cmdsFailed                             int64
	gets, getsFailed, bodyBytes            int64
}

func (c counters) sub(o counters) counters {
	return counters{
		upBytes: c.upBytes - o.upBytes, downBytes: c.downBytes - o.downBytes,
		upMsgs: c.upMsgs - o.upMsgs, downMsgs: c.downMsgs - o.downMsgs,
		reports: c.reports - o.reports, cmds: c.cmds - o.cmds,
		droppedSends: c.droppedSends - o.droppedSends, corrupted: c.corrupted - o.corrupted,
		watchEvents: c.watchEvents - o.watchEvents, watchOverflows: c.watchOverflows - o.watchOverflows,
		handovers: c.handovers - o.handovers, brokerEpochs: c.brokerEpochs - o.brokerEpochs,
		brokerApplied: c.brokerApplied - o.brokerApplied, cmdsFailed: c.cmdsFailed - o.cmdsFailed,
		gets: c.gets - o.gets, getsFailed: c.getsFailed - o.getsFailed, bodyBytes: c.bodyBytes - o.bodyBytes,
	}
}

// samples are the per-operation times a world collects besides the TTI.
type samples struct {
	loopNs []int64
	getNs  [len(nbEndpoints)][]int64
}

// checkEvery is how often the invariants are verified inside a section
// (and once more at its end).
const checkEvery = 100

// section is one measured stretch of TTIs on a built world. ttiP50us and
// ttiPerS describe its quieter blocks (see quietQuartile); tti, the counts
// and everything else cover all of it.
type section struct {
	ttis              int
	ttiP50us, ttiPerS float64
	tti               latencies
	c                 counters
	loop              latencies
	get               latencies
	getEach           [len(nbEndpoints)]latencies
	failed            int64

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
}

// runSection drives ttis lock-step TTIs, timing each into the preallocated
// ttiNs. tr is nil for the untraced run.
func runSection(w world, ttis int, tr *tracer, ttiNs []int64) section {
	w.resetSamples()
	w.setTracer(tr)
	sec := section{ttis: ttis}
	ttiNs = ttiNs[:ttis]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := w.counters()
	dl0 := w.deliveredDL()
	for i := range ttiNs {
		if tr != nil {
			tr.tti = int32(i)
		}
		t0 := time.Now()
		w.tti()
		ttiNs[i] = int64(time.Since(t0))
		if i%checkEvery == checkEvery-1 {
			sec.failed += int64(w.check())
		}
	}
	w.setTracer(nil)
	runtime.ReadMemStats(&m1)
	sec.failed += int64(w.check())
	if w.deliveredDL() <= dl0 {
		sec.failed++ // the data plane delivered nothing all section
	}
	sec.c = w.counters().sub(c0)
	sec.failed += sec.c.cmdsFailed + sec.c.getsFailed + sec.c.watchOverflows
	sec.mallocs, sec.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	sec.gcCycles, sec.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)

	sec.ttiP50us, sec.ttiPerS = quietQuartile(ttiNs)
	sec.tti = summarize(ttiNs)
	s := w.samples()
	sec.loop = summarize(s.loopNs)
	var all []int64
	for ep, ns := range s.getNs {
		all = append(all, ns...)
		sec.getEach[ep] = summarize(ns)
	}
	sec.get = summarize(all)
	return sec
}

// ops is the number of operations a section attempted: TTIs, control
// messages toward agents, and northbound GETs.
func (s *section) ops() int64 { return int64(s.ttis) + s.c.downMsgs + s.c.gets }

// perTTI scales a section count to one TTI.
func (s *section) perTTI(n int64) float64 { return float64(n) / float64(s.ttis) }

// sigMbps is metered bytes per TTI as Mb/s at 1 ms TTIs (the paper's
// Fig. 7 unit): bytes x 8 bits x 1000 TTI/s / 1e6.
func (s *section) sigMbps(bytes int64) float64 { return s.perTTI(bytes) * 8 / 1000 }

// setup builds the workload's world repeats times, keeps the last one and
// returns the median build time. Every build must reach the same state:
// that is the per-invocation half of the state_digest gate.
func (wl *workload) setup(seed int64, warmTTIs, repeats int) (world, float64, error) {
	var times []float64
	var w world
	var first uint64
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC() // drop the previous world outside the timed build
		}
		t0 := time.Now()
		var err error
		if w, err = wl.build(seed, warmTTIs, 1); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		d := w.digest()
		if i == 0 {
			first = d
		} else if d != first {
			w.close()
			return nil, 0, fmt.Errorf("%s: set-up %d reached state %016x, set-up 1 reached %016x from the same seed", wl.name, i+1, d, first)
		}
	}
	return w, median(times), nil
}
