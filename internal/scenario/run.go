package scenario

// This file executes a built Runtime and reduces the end state to a
// Summary plus a stable digest. The digest is a 64-bit FNV-1a over a
// canonical dump of everything deterministic about the run — per-UE final
// data-plane state, attach latencies, the handover log, lifecycle events
// and slice totals — so one scenario digests identically on every run.
// That invariant (enforced in CI by the scenario matrix) is what makes
// committed golden digests a regression gate over the whole
// sim/sched/mobility/resilience stack.

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"

	"flexran/internal/apps"
	"flexran/internal/apps/broker"
	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/sim"
	"flexran/internal/slice"
)

// CellThroughput is the per-cell slice of the Summary, attributed by each
// UE's final serving cell (counters travel with the UE on handover).
type CellThroughput struct {
	ENB     lte.ENBID  `json:"enb"`
	Cell    lte.CellID `json:"cell"`
	UEs     int        `json:"ues"`
	DLBytes uint64     `json:"dl_bytes"`
	Mbps    float64    `json:"mbps"`
}

// SliceThroughput aggregates delivery per scheduling group (operator or
// tier under RAN sharing).
type SliceThroughput struct {
	Group   int     `json:"group"`
	UEs     int     `json:"ues"`
	DLBytes uint64  `json:"dl_bytes"`
	Mbps    float64 `json:"mbps"`
}

// Summary is the deterministic outcome of one scenario run.
type Summary struct {
	Name string `json:"name"`
	ENBs int    `json:"enbs"`
	UEs  int    `json:"ues"`

	// Attach phase.
	AttachTTIs    int     `json:"attach_ttis"`
	Attached      int     `json:"attached"`
	AttachMeanTTI float64 `json:"attach_mean_tti"`
	AttachMaxTTI  int     `json:"attach_max_tti"`

	// Measured run.
	RunTTIs        int     `json:"run_ttis"`
	DLDelivered    uint64  `json:"dl_delivered_bytes"`
	ULDelivered    uint64  `json:"ul_delivered_bytes"`
	DLDropped      uint64  `json:"dl_dropped_bytes"`
	HARQRetx       uint64  `json:"harq_retx"`
	ThroughputMbps float64 `json:"throughput_mbps"`

	Cells  []CellThroughput  `json:"cells,omitempty"`
	Slices []SliceThroughput `json:"slices,omitempty"`

	// Mobility.
	Handovers int `json:"handovers"`
	PingPongs int `json:"ping_pongs"`

	// Resilience.
	FaultsInjected int              `json:"faults_injected"`
	AgentDowns     int              `json:"agent_downs"`
	AgentUps       int              `json:"agent_ups"`
	Lifecycle      []LifecycleEvent `json:"lifecycle,omitempty"`

	// Gray-failure health transitions (empty unless the master's health
	// monitor is enabled).
	AgentDegraded int           `json:"agent_degraded"`
	AgentRecovers int           `json:"agent_recovers"`
	Health        []HealthEvent `json:"health,omitempty"`

	// Elastic slice broker (all empty/zero unless the scenario declares a
	// slices: section, keeping legacy summaries and digests untouched).
	SliceSLA       []slice.Status `json:"slice_sla,omitempty"`
	BrokerEpochs   int            `json:"broker_epochs,omitempty"`
	BrokerApplied  int            `json:"broker_applied,omitempty"`
	BrokerDeferred int            `json:"broker_deferred,omitempty"`
	BrokerLost     int            `json:"broker_lost,omitempty"`

	// Digest is the stable end-state fingerprint (hex FNV-1a 64).
	Digest string `json:"digest"`
}

// Result is a finished run: the summary plus the live runtime for callers
// (examples, tests) that want to poke at the world afterwards.
type Result struct {
	Runtime *Runtime
	Summary Summary
}

// Execute is the one-call convenience: build the scenario's runtime, run
// it, summarize.
func (sc *Scenario) Execute() (*Result, error) {
	rt, err := sc.build()
	if err != nil {
		return nil, err
	}
	return rt.Execute()
}

// Execute runs the scenario to completion: attach phase, fault/ransharing
// arming, the measured run, then summary + digest.
func (rt *Runtime) Execute() (*Result, error) {
	sc := rt.Scenario
	s := rt.Sim

	// Attach phase: step until every UE connects or the budget runs out,
	// recording per-UE attach latencies (in TTIs from scenario start).
	attachTTI := make(map[uint64]int, len(rt.imsis))
	pending := append([]uint64(nil), rt.imsis...)
	attachTTIs := 0
	for tti := 0; tti < sc.Run.AttachTTIs && len(pending) > 0; tti++ {
		s.Step()
		attachTTIs++
		remaining := pending[:0]
		for _, imsi := range pending {
			if r, _, ok := s.ReportByIMSI(imsi); ok && r.State == enb.StateConnected {
				attachTTI[imsi] = attachTTIs
			} else {
				remaining = append(remaining, imsi)
			}
		}
		pending = remaining
	}

	// Arm the fault script and any ransharing plans relative to the end
	// of the attach phase.
	base := s.Now()
	if len(sc.Faults) > 0 {
		faults := slices.Clone(sc.Faults)
		for i := range faults {
			faults[i].At += base
		}
		s.InjectFaults(faults...)
	}
	for i, a := range rt.sharing {
		plan := slices.Clone(a.Plan)
		for j := range plan {
			plan[j].At += base
		}
		s.Master.Register(broker.NewScript(a.ENB, plan), 1000+10*i)
	}
	if rt.Broker != nil {
		// Armed at the end of attach like share plans and retunes: every
		// arrive_at offset and epoch boundary counts from here.
		rt.Broker.Arm(base)
		s.Master.Register(rt.Broker, 1500)
	}
	for i, r := range rt.retunes {
		r.master, r.at = s.Master, base+lte.Subframe(r.decl.RetuneAt)
		s.Master.Register(r, 2000+10*i)
	}

	// Baseline the delivery counters so throughput covers the measured
	// run only (attach-phase traffic excluded).
	base0 := map[uint64]baseline{}
	for _, imsi := range rt.imsis {
		if r, _, ok := s.ReportByIMSI(imsi); ok {
			base0[imsi] = baseline{dl: r.DLDelivered, ul: r.ULDelivered, drop: r.DLDropped, harq: r.HARQRetx}
		}
	}

	s.Run(sc.Run.TTIs)

	return &Result{Runtime: rt, Summary: rt.summarize(attachTTI, attachTTIs, base0)}, nil
}

// retuneDriver swaps a mobility manager's target policy mid-run through
// Master.Do — the path a live northbound operator's change takes — so
// scenario goldens cover runtime reconfiguration. The swap is queued on the
// tick that reaches the deadline and applied at the start of the next
// application slot, which keeps it deterministic.
type retuneDriver struct {
	master *controller.Master
	mm     *apps.MobilityManager
	at     lte.Subframe
	decl   AppDecl
	done   bool
}

func (d *retuneDriver) Name() string { return "scn-retune" }

func (d *retuneDriver) OnTick(ctx *controller.Context, now lte.Subframe) {
	if d.done || now < d.at {
		return
	}
	d.done = true
	policy := apps.TargetPolicy(apps.StrongestNeighbor{})
	if d.decl.RetunePolicy == "load_balanced" {
		policy = apps.LoadBalanced{LoadWeight: d.decl.RetuneLoadWeight}
	}
	d.master.Do(func(*controller.Context) { d.mm.Policy = policy })
}

type ueFinal struct {
	imsi   uint64
	enb    lte.ENBID
	report enb.UEReport
	found  bool
}

// baseline snapshots one UE's cumulative counters at the end of attach.
type baseline struct {
	dl, ul, drop uint64
	harq         uint32
}

func (rt *Runtime) summarize(attachTTI map[uint64]int, attachTTIs int, base0 map[uint64]baseline) Summary {
	sc := rt.Scenario
	s := rt.Sim

	sum := Summary{
		Name:       sc.Name,
		ENBs:       len(sc.ENBs),
		UEs:        len(rt.imsis),
		AttachTTIs: attachTTIs,
		RunTTIs:    sc.Run.TTIs,
	}

	// Per-UE final state, IMSI-ordered.
	finals := make([]ueFinal, 0, len(rt.imsis))
	for _, imsi := range rt.imsis {
		r, id, ok := s.ReportByIMSI(imsi)
		finals = append(finals, ueFinal{imsi: imsi, enb: id, report: r, found: ok})
	}

	// Attach statistics.
	var attachSum, attachMax int
	for _, imsi := range rt.imsis {
		if t, ok := attachTTI[imsi]; ok {
			sum.Attached++
			attachSum += t
			if t > attachMax {
				attachMax = t
			}
		}
	}
	if sum.Attached > 0 {
		sum.AttachMeanTTI = float64(attachSum) / float64(sum.Attached)
		sum.AttachMaxTTI = attachMax
	}

	// Delivery totals and per-cell/per-slice attribution over the
	// measured run (baselined after attach).
	secs := float64(sc.Run.TTIs) / lte.TTIsPerSecond
	cellAgg := map[[2]uint64]*CellThroughput{}
	sliceAgg := map[int]*SliceThroughput{}
	for _, f := range finals {
		if !f.found {
			continue
		}
		b := base0[f.imsi]
		dl := f.report.DLDelivered - b.dl
		sum.DLDelivered += dl
		sum.ULDelivered += f.report.ULDelivered - b.ul
		sum.DLDropped += f.report.DLDropped - b.drop
		sum.HARQRetx += uint64(f.report.HARQRetx - b.harq)

		ck := [2]uint64{uint64(f.enb), uint64(f.report.Cell)}
		ct := cellAgg[ck]
		if ct == nil {
			ct = &CellThroughput{ENB: f.enb, Cell: f.report.Cell}
			cellAgg[ck] = ct
		}
		ct.UEs++
		ct.DLBytes += dl

		st := sliceAgg[rt.groups[f.imsi]]
		if st == nil {
			st = &SliceThroughput{Group: rt.groups[f.imsi]}
			sliceAgg[rt.groups[f.imsi]] = st
		}
		st.UEs++
		st.DLBytes += dl
	}
	if secs > 0 {
		sum.ThroughputMbps = float64(sum.DLDelivered) * 8 / 1e6 / secs
	}
	for _, ct := range cellAgg {
		if secs > 0 {
			ct.Mbps = float64(ct.DLBytes) * 8 / 1e6 / secs
		}
		sum.Cells = append(sum.Cells, *ct)
	}
	sort.Slice(sum.Cells, func(i, j int) bool {
		if sum.Cells[i].ENB != sum.Cells[j].ENB {
			return sum.Cells[i].ENB < sum.Cells[j].ENB
		}
		return sum.Cells[i].Cell < sum.Cells[j].Cell
	})
	for _, st := range sliceAgg {
		if secs > 0 {
			st.Mbps = float64(st.DLBytes) * 8 / 1e6 / secs
		}
		sum.Slices = append(sum.Slices, *st)
	}
	sort.Slice(sum.Slices, func(i, j int) bool { return sum.Slices[i].Group < sum.Slices[j].Group })

	// Mobility: handover and ping-pong counts from the execution log.
	hos := s.Handovers()
	sum.Handovers = len(hos)
	sum.PingPongs = s.PingPongs(lte.Subframe(sc.Run.PingPongWindowTTI))

	// Resilience.
	sum.FaultsInjected = len(sc.Faults)
	if rt.lifecycle != nil {
		sum.Lifecycle = append(sum.Lifecycle, rt.lifecycle.events...)
		for _, ev := range rt.lifecycle.events {
			if ev.Up {
				sum.AgentUps++
			} else {
				sum.AgentDowns++
			}
		}
		sum.Health = append(sum.Health, rt.lifecycle.health...)
		for _, ev := range rt.lifecycle.health {
			if ev.State == 0 {
				sum.AgentRecovers++
			} else {
				sum.AgentDegraded++
			}
		}
	}

	// Slice broker outcome.
	if rt.Broker != nil {
		sum.SliceSLA = rt.Broker.Statuses()
		sum.BrokerEpochs = rt.Broker.Epochs
		sum.BrokerApplied = rt.Broker.Applied
		sum.BrokerDeferred = rt.Broker.Deferred
		sum.BrokerLost = rt.Broker.Lost
	}

	sum.Digest = rt.digest(&sum, finals, attachTTI, hos)
	return sum
}

// digest folds the canonical end state into a hex FNV-1a 64 fingerprint.
// Everything written here is bit-for-bit reproducible; wall-clock noise is
// excluded by construction.
func (rt *Runtime) digest(sum *Summary, finals []ueFinal, attachTTI map[uint64]int, hos []sim.HandoverRecord) string {
	h := fnv.New64a()
	w := func(format string, args ...interface{}) { fmt.Fprintf(h, format, args...) }

	sc := rt.Scenario
	w("scenario %s seed %d ttis %d attach %d\n", sc.Name, sc.Run.Seed, sc.Run.TTIs, sum.AttachTTIs)
	for _, f := range finals {
		if !f.found {
			w("ue %d gone\n", f.imsi)
			continue
		}
		r := f.report
		w("ue %d enb %d cell %d state %d cqi %d att %d q %d %d %d dl %d ul %d drop %d harq %d avg %x %x sched %d\n",
			f.imsi, f.enb, r.Cell, r.State, r.CQI, attachTTI[f.imsi],
			r.DLQueue, r.ULQueue, r.SigQueue,
			r.DLDelivered, r.ULDelivered, r.DLDropped, r.HARQRetx,
			math.Float64bits(r.AvgDLKbps), math.Float64bits(r.AvgULKbps), r.LastSched)
	}
	for _, ho := range hos {
		w("ho %d %d->%d rnti %d->%d sf %d\n", ho.IMSI, ho.From, ho.To, ho.FromRNTI, ho.ToRNTI, ho.SF)
	}
	for _, ev := range sum.Lifecycle {
		w("life %d enb %d up %v\n", ev.Cycle, ev.ENB, ev.Up)
	}
	for _, ev := range sum.Health {
		w("health %d enb %d state %d\n", ev.Cycle, ev.ENB, ev.State)
	}
	for _, st := range sum.Slices {
		w("slice %d ues %d dl %d\n", st.Group, st.UEs, st.DLBytes)
	}
	if rt.Broker != nil {
		w("broker epochs %d applied %d deferred %d lost %d\n",
			sum.BrokerEpochs, sum.BrokerApplied, sum.BrokerDeferred, sum.BrokerLost)
		for _, st := range sum.SliceSLA {
			w("slicesla %s group %d dec %d share %x ues %d tput %x q %x att %x proj %x viol %v %d of %d\n",
				st.Name, st.Group, int(st.Decision), math.Float64bits(st.Share), st.UEs,
				math.Float64bits(st.ThroughputKbps), math.Float64bits(st.QueueMs),
				math.Float64bits(st.Attainment), math.Float64bits(st.Projected),
				st.Violating, st.ViolationEpochs, st.Epochs)
		}
	}
	w("pingpong %d\n", sum.PingPongs)
	return fmt.Sprintf("%016x", h.Sum64())
}
