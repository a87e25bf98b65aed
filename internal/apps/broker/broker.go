// Package broker is the one home for share actuation, the paper's §6.3
// RAN-sharing use case. The elastic slice broker is the closed loop: it
// consumes declarative slice.Specs, reads the RIB's per-UE state each
// epoch to compute per-slice SLA attainment, re-plans the per-group share
// vector across every member cell — water-filling capacity between slices
// by deficit — and runs admission control on arriving slices, publishing
// its decisions as slice events on the watch stream. Script is the open
// loop: a fixed share schedule played back against one eNodeB (Fig. 12a).
// Both push through one actuator, which never pushes toward a Suspect
// agent, replays the newest withheld vector on recovery and rides
// reliable command delivery when the master has it enabled.
package broker

import (
	"fmt"
	"sort"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/slice"
)

// Defaults applied where the Config leaves a knob zero.
const (
	defaultEpochTTI   = 100
	defaultHysteresis = 2
	defaultDegrade    = 0.5
)

// Config parameterizes a Broker. It plans across every agent the RIB
// knows and pushes to the MAC downlink slicer (SharePlan's zero address).
type Config struct {
	// EpochTTI is the control period: measurement, admission and re-plan
	// run every EpochTTI cycles (0 selects 100).
	EpochTTI int
	// Elastic selects the closed loop: deficit-driven water-filling over
	// the measured attainment. False freezes the planner at the static
	// weight-proportional plan — the ablation arm of fig_slicing.
	Elastic bool
	// DegradeFactor scales a degraded slice's weight (0 selects 0.5).
	DegradeFactor float64
	// HysteresisEpochs is the default violation hysteresis for specs that
	// do not set their own (0 selects 2).
	HysteresisEpochs int
}

// entry is the broker's per-slice state.
type entry struct {
	spec slice.Spec
	st   slice.Status
	// arrived marks the slice past its admission point; foundingMember
	// marks a spec installed before arming with ArriveAt 0, which joins
	// admitted without an admission decision.
	arrived        bool
	foundingMember bool
	// bad/good count consecutive epochs on either side of the SLA line
	// (the hysteresis inputs).
	bad, good int
}

// Broker is the elastic slice broker application. All state is owned by
// the master's application slot: every mutation path — OnTick and the
// northbound Upsert/Remove (which run via Master.Do) — executes on the
// tick goroutine, so the broker needs no locking.
type Broker struct {
	cfg Config

	entries []*entry // sorted by name; the deterministic iteration order
	armed   bool
	base    lte.Subframe

	// actuator pushes each epoch's plan to every member and counts the
	// outcomes (Applied, Deferred, Lost).
	actuator
	// Epochs counts completed control epochs.
	Epochs int

	ueScratch     []protocol.UEStats
	memberScratch []lte.ENBID
}

// New builds a broker over the given specs. Spec names and groups must be
// unique; specs are kept sorted by name so every control decision
// iterates them in one deterministic order.
func New(cfg Config, specs ...slice.Spec) (*Broker, error) {
	if cfg.EpochTTI <= 0 {
		cfg.EpochTTI = defaultEpochTTI
	}
	if cfg.DegradeFactor <= 0 {
		cfg.DegradeFactor = defaultDegrade
	}
	if cfg.HysteresisEpochs <= 0 {
		cfg.HysteresisEpochs = defaultHysteresis
	}
	b := &Broker{cfg: cfg}
	for _, sp := range specs {
		if err := b.add(sp); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Name implements controller.App.
func (*Broker) Name() string { return "slice-broker" }

// add installs a spec (pre-arm construction and Upsert's insert half).
func (b *Broker) add(sp slice.Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	for _, e := range b.entries {
		if e.spec.Name == sp.Name {
			return fmt.Errorf("broker: duplicate slice %q", sp.Name)
		}
		if e.spec.Group == sp.Group {
			return fmt.Errorf("broker: slices %q and %q share group %d", e.spec.Name, sp.Name, sp.Group)
		}
	}
	e := &entry{
		spec:           sp,
		st:             slice.Status{Name: sp.Name, Group: sp.Group, Decision: slice.Pending},
		foundingMember: !b.armed && sp.ArriveAt == 0,
	}
	b.entries = append(b.entries, e)
	sort.SliceStable(b.entries, func(i, j int) bool {
		return b.entries[i].spec.Name < b.entries[j].spec.Name
	})
	return nil
}

// Arm pins the broker's epoch origin (the scenario engine calls this with
// the end-of-attach cycle, mirroring how share plans and retunes are
// scheduled). Unarmed brokers self-arm on their first tick.
func (b *Broker) Arm(base lte.Subframe) {
	b.armed = true
	b.base = base
	b.admitFounders()
}

// admitFounders activates the specs present from the start: they join
// admitted, bypassing admission control.
func (b *Broker) admitFounders() {
	for _, e := range b.entries {
		if e.foundingMember && !e.arrived {
			e.arrived = true
			e.st.Decision = slice.Admitted
		}
	}
}

// Specs returns the installed specs in name order.
func (b *Broker) Specs() []slice.Spec {
	out := make([]slice.Spec, len(b.entries))
	for i, e := range b.entries {
		out[i] = e.spec
	}
	return out
}

// Statuses returns the live per-slice status in name order.
func (b *Broker) Statuses() []slice.Status {
	out := make([]slice.Status, len(b.entries))
	for i, e := range b.entries {
		out[i] = e.st
	}
	return out
}

// Status returns one slice's live status by name.
func (b *Broker) Status(name string) (slice.Status, bool) {
	for _, e := range b.entries {
		if e.spec.Name == name {
			return e.st, true
		}
	}
	return slice.Status{}, false
}

// Upsert installs or replaces a spec at runtime (the northbound PUT
// /slices path; runs in the application slot via Master.Do). A new spec
// arrives like a scheduled arrival: it faces admission control at the
// next epoch boundary. Replacing a spec keeps the slice's admission and
// violation state but adopts the new targets and weight.
func (b *Broker) Upsert(ctx *controller.Context, sp slice.Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	for _, e := range b.entries {
		if e.spec.Name == sp.Name {
			continue
		}
		if e.spec.Group == sp.Group {
			return fmt.Errorf("broker: slices %q and %q share group %d", e.spec.Name, sp.Name, sp.Group)
		}
	}
	for _, e := range b.entries {
		if e.spec.Name == sp.Name {
			e.spec = sp
			e.st.Group = sp.Group
			return nil
		}
	}
	return b.add(sp)
}

// Remove deletes a slice by name and reports whether it existed. Its
// group drops out of the plan — and is starved — at the next epoch.
func (b *Broker) Remove(ctx *controller.Context, name string) bool {
	for i, e := range b.entries {
		if e.spec.Name == name {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return true
		}
	}
	return false
}

// OnTick implements controller.TickerApp: the epoch control loop, then
// the replay of any plan withheld from a member that has recovered.
func (b *Broker) OnTick(ctx *controller.Context, cycle lte.Subframe) {
	if !b.armed {
		b.Arm(cycle)
	}
	if cycle >= b.base && (cycle-b.base)%lte.Subframe(b.cfg.EpochTTI) == 0 {
		b.measure(ctx)
		b.admissions(ctx, int64(cycle-b.base))
		plan := b.computePlan()
		b.recordShares(plan)
		if len(plan) > 0 {
			for _, enb := range b.members(ctx) {
				b.push(ctx, enb, plan)
			}
		}
		b.Epochs++
	}
	b.replay(ctx)
}

// members resolves the member eNodeB list for this epoch: every agent in
// the RIB, in ascending id order.
func (b *Broker) members(ctx *controller.Context) []lte.ENBID {
	b.memberScratch = ctx.RIB().AppendAgents(b.memberScratch[:0])
	return b.memberScratch
}

// measure aggregates the RIB's per-UE state into per-slice measurements:
// member count, aggregate downlink rate, worst head-of-line delay — and
// derives each slice's SLA attainment.
func (b *Broker) measure(ctx *controller.Context) {
	for _, e := range b.entries {
		e.st.UEs = 0
		e.st.ThroughputKbps = 0
		e.st.QueueMs = 0
	}
	rib := ctx.RIB()
	for _, enb := range b.members(ctx) {
		b.ueScratch = rib.AppendUEsOf(enb, b.ueScratch[:0])
		for i := range b.ueScratch {
			u := &b.ueScratch[i]
			e := b.entryByGroup(u.Group)
			if e == nil {
				continue
			}
			e.st.UEs++
			e.st.ThroughputKbps += float64(u.DLRateKbps)
			for _, lc := range u.LCs {
				if q := float64(lc.HoLDelayMs); q > e.st.QueueMs {
					e.st.QueueMs = q
				}
			}
		}
	}
	for _, e := range b.entries {
		e.st.Attainment = attainment(e.spec.SLA, e.st.ThroughputKbps, e.st.QueueMs)
		if !e.arrived || e.st.Decision == slice.Rejected || !e.spec.SLA.Defined() {
			continue
		}
		e.st.Epochs++
		if e.st.Attainment < 1 {
			e.bad++
			e.good = 0
		} else {
			e.good++
			e.bad = 0
		}
		hys := e.spec.HysteresisEpochs
		if hys <= 0 {
			hys = b.cfg.HysteresisEpochs
		}
		if !e.st.Violating && e.bad >= hys {
			e.st.Violating = true
			ctx.EmitSliceEvent(controller.WatchEvent{
				Slice: e.spec.Name, Decision: "violating", Attainment: e.st.Attainment,
			})
		} else if e.st.Violating && e.good >= hys {
			e.st.Violating = false
			ctx.EmitSliceEvent(controller.WatchEvent{
				Slice: e.spec.Name, Decision: "recovered", Attainment: e.st.Attainment,
			})
		}
		if e.st.Violating {
			e.st.ViolationEpochs++
		}
	}
}

// attainment is the measured SLA attainment: the minimum over the
// declared objectives of achieved/target. An SLA with no objectives
// reads 1.
func attainment(sla slice.SLA, tputKbps, queueMs float64) float64 {
	a := 1.0
	defined := false
	if sla.MinThroughputKbps > 0 {
		a = tputKbps / sla.MinThroughputKbps
		defined = true
	}
	if sla.MaxQueueMs > 0 && queueMs > 0 {
		if q := sla.MaxQueueMs / queueMs; !defined || q < a {
			a = q
		}
		defined = true
	}
	if !defined {
		return 1
	}
	return a
}

// entryByGroup resolves a UE-group label to its slice.
func (b *Broker) entryByGroup(group int) *entry {
	for _, e := range b.entries {
		if e.spec.Group == group {
			return e
		}
	}
	return nil
}

// admissions runs admission control over slices whose arrival point has
// passed: the projected attainment — what the free-capacity model says
// the newcomer would attain at its fair share — is compared against the
// spec's policy thresholds, and each decision is published as a slice
// event carrying the projection.
func (b *Broker) admissions(ctx *controller.Context, offset int64) {
	for _, e := range b.entries {
		if e.arrived || offset < e.spec.ArriveAt {
			continue
		}
		e.arrived = true
		p := b.project(e)
		switch {
		case p < e.spec.Admission.RejectBelow:
			e.st.Decision = slice.Rejected
		case p >= e.spec.Admission.AdmitAbove:
			e.st.Decision = slice.Admitted
		default:
			e.st.Decision = slice.Degraded
		}
		e.st.Projected = p
		ctx.EmitSliceEvent(controller.WatchEvent{
			Slice: e.spec.Name, Decision: e.st.Decision.String(), Attainment: p,
		})
	}
}

// project estimates the SLA attainment an arriving slice would reach at
// its fair (weight-proportional) share, from the measured capacity proxy:
// the served throughput per unit share across the already-active slices.
// With no throughput objective — or no signal yet — the projection is an
// optimistic 1 (admission then depends only on the policy thresholds).
func (b *Broker) project(e *entry) float64 {
	if e.spec.SLA.MinThroughputKbps <= 0 {
		return 1
	}
	var served, granted float64
	w := e.spec.EffectiveWeight()
	total := w
	for _, o := range b.entries {
		if o == e || !o.active() {
			continue
		}
		total += b.planWeight(o)
		if o.st.Share > 0 && o.st.ThroughputKbps > 0 {
			served += o.st.ThroughputKbps
			granted += o.st.Share
		}
	}
	if served <= 0 || granted <= 0 {
		return 1
	}
	capacity := served / granted // kbps per unit share
	return capacity * (w / total) / e.spec.SLA.MinThroughputKbps
}

// active reports whether the slice participates in the share plan.
func (e *entry) active() bool {
	return e.arrived && (e.st.Decision == slice.Admitted || e.st.Decision == slice.Degraded)
}
