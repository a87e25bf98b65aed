package broker

import (
	"math"

	"flexran/internal/slice"
)

// Planner tuning. The multiplicative demand update is damped (a slice can
// ask for at most demandGrowCap× and at least demandShrinkCap× its
// current share per epoch) and over-asks by demandHeadroom so a satisfied
// slice settles slightly above its SLA line instead of oscillating on it.
const (
	demandHeadroom  = 1.1
	demandGrowCap   = 4.0
	demandShrinkCap = 0.5
	minShare        = 0.02
)

// planWeight is a slice's weight in the plan: the spec weight, scaled by
// the degrade factor for degraded slices.
func (b *Broker) planWeight(e *entry) float64 {
	w := e.spec.EffectiveWeight()
	if e.st.Decision == slice.Degraded {
		w *= b.cfg.DegradeFactor
	}
	return w
}

// computePlan produces the per-group share vector (indexed by UE-group
// label). Inactive groups — rejected, removed, or not yet arrived — hold
// zero; the vector always spans every installed spec's group so a
// decision is visible as an explicit zero rather than a shorter vector.
//
// Static mode splits capacity weight-proportionally between the active
// slices. Elastic mode water-fills: each slice's demand is its current
// share scaled by how far its measurement sits from its SLA (damped),
// capacity is granted weight-proportionally up to each demand, and the
// surplus of satisfied slices is re-offered to the still-hungry — the
// deficit-driven reallocation that lets an under-provisioned slice absorb
// an over-provisioned one's idle share.
func (b *Broker) computePlan() []float64 {
	plan, totW := b.split((*entry).active)
	if !b.cfg.Elastic || totW <= 0 {
		return plan
	}
	type claim struct {
		e      *entry
		demand float64
		alloc  float64
	}
	var claims []*claim
	for _, e := range b.entries { // name order: deterministic
		if e.active() {
			claims = append(claims, &claim{e: e, demand: b.demand(e, totW)})
		}
	}
	// Weight-proportional water-filling up to each demand; a satisfied
	// slice's surplus is re-offered to the remainder. Each round either
	// satisfies a claim or exhausts the budget, so the loop is bounded.
	budget := 1.0
	unsat := append([]*claim(nil), claims...)
	for budget > 1e-12 && len(unsat) > 0 {
		tw := 0.0
		for _, c := range unsat {
			tw += b.planWeight(c.e)
		}
		if tw <= 0 {
			break
		}
		spent := 0.0
		next := unsat[:0]
		for _, c := range unsat {
			g := budget * b.planWeight(c.e) / tw
			if room := c.demand - c.alloc; g >= room {
				g = room
			} else {
				next = append(next, c)
			}
			c.alloc += g
			spent += g
		}
		budget -= spent
		if len(next) == len(unsat) {
			break // nobody hit their demand: the budget is exhausted
		}
		unsat = next
	}
	if budget > 1e-12 && len(claims) > 0 {
		// Every demand met: the remainder is headroom, split by weight.
		tw := 0.0
		for _, c := range claims {
			tw += b.planWeight(c.e)
		}
		for _, c := range claims {
			c.alloc += budget * b.planWeight(c.e) / tw
		}
	}
	for _, c := range claims {
		plan[c.e.spec.Group] = c.alloc
	}
	return plan
}

// split is the static plan over the slices that in selects: each selected
// group gets its weight's fraction of the selected total (returned as
// totW), every other group zero. The vector spans every installed spec's
// group; it is nil with no spec installed.
func (b *Broker) split(in func(*entry) bool) (plan []float64, totW float64) {
	maxGroup := -1
	for _, e := range b.entries {
		maxGroup = max(maxGroup, e.spec.Group)
		if in(e) {
			totW += b.planWeight(e)
		}
	}
	if maxGroup < 0 {
		return nil, 0
	}
	plan = make([]float64, maxGroup+1)
	if totW <= 0 {
		return plan, totW
	}
	for _, e := range b.entries {
		if in(e) {
			plan[e.spec.Group] = b.planWeight(e) / totW
		}
	}
	return plan, totW
}

// FoundingShares is the static split between the founding specs (present
// before arming with arrive_at 0): the vector in force on every member
// before the first epoch. Later arrivals start starved until admitted.
func (b *Broker) FoundingShares() []float64 {
	plan, _ := b.split(func(e *entry) bool { return e.foundingMember })
	return plan
}

// demand is the share a slice asks for this epoch: before any measurement
// it is the fair (weight-proportional) share; afterwards the current
// share scaled by the measured SLA deficit or surplus, damped and floored
// so one noisy epoch cannot collapse or monopolize the plan.
func (b *Broker) demand(e *entry, totW float64) float64 {
	fair := b.planWeight(e) / totW
	if e.st.Epochs == 0 || e.st.Share <= 0 || !e.spec.SLA.Defined() {
		return fair
	}
	factor := 1.0
	if t := e.spec.SLA.MinThroughputKbps; t > 0 {
		if e.st.ThroughputKbps > 0 {
			factor = t / e.st.ThroughputKbps
		} else {
			factor = demandGrowCap // granted share served nothing: starving
		}
	}
	if t := e.spec.SLA.MaxQueueMs; t > 0 && e.st.QueueMs > t {
		if qf := e.st.QueueMs / t; qf > factor {
			factor = qf
		}
	}
	factor = math.Min(math.Max(factor, demandShrinkCap), demandGrowCap)
	d := e.st.Share * factor * demandHeadroom
	return math.Min(math.Max(d, minShare), 1)
}

// recordShares folds the plan back into the per-slice statuses.
func (b *Broker) recordShares(plan []float64) {
	for _, e := range b.entries {
		if e.active() && e.spec.Group < len(plan) {
			e.st.Share = plan[e.spec.Group]
		} else {
			e.st.Share = 0
		}
	}
}
