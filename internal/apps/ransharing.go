package apps

import (
	"flexran/internal/controller"
	"flexran/internal/lte"
)

// ShareChange is one scheduled reallocation of radio resources between
// operators (the Fig. 12a experiment script: 70/30 at start, 40/60 at
// 10 s, 80/20 at 140 s).
type ShareChange struct {
	// At is the master cycle at which the change is pushed.
	At lte.Subframe
	// Shares is the per-operator PRB fraction vector.
	Shares []float64
}

// RANSharing is the RAN-sharing management application of §6.3 in its
// static form: a scripted share schedule played back against one eNodeB.
// It is a thin adapter over the typed share actuation path the slice
// broker plans through (Context.ApplyShares) — the closed-loop broker
// (internal/apps/broker) owns everything beyond a fixed script: SLAs,
// admission, re-planning.
type RANSharing struct {
	// ENB is the shared eNodeB; pushes go to its MAC downlink slicer.
	ENB lte.ENBID
	// Plan is the scripted share schedule, ascending by At.
	Plan []ShareChange

	// Applied counts accepted pushes; Deferred counts schedule points
	// that found the agent unhealthy and were held back; Lost counts
	// pushes the command path refused — no bound session
	// (controller.ErrNoSession) or a rejected vector.
	Applied  int
	Deferred int
	Lost     int
	next     int
	// deferred holds the latest share vector owed to an unhealthy agent:
	// pushes freeze while the eNodeB is Suspect (a wedged agent would ack
	// nothing and a recovering one would apply a stale interleaving), and
	// only the most recent vector replays once it is healthy again.
	deferred []float64
}

// NewRANSharing builds the app for the MAC downlink slicer.
func NewRANSharing(enb lte.ENBID, plan []ShareChange) *RANSharing {
	return &RANSharing{ENB: enb, Plan: plan}
}

// Name implements controller.App.
func (*RANSharing) Name() string { return "ran-sharing" }

// OnTick implements controller.TickerApp.
func (r *RANSharing) OnTick(ctx *controller.Context, cycle lte.Subframe) {
	healthy := ctx.RIB().HealthOf(r.ENB) < controller.Suspect
	for r.next < len(r.Plan) && cycle >= r.Plan[r.next].At {
		change := r.Plan[r.next]
		r.next++
		if !healthy {
			r.deferred = change.Shares
			r.Deferred++
			continue
		}
		r.deferred = nil
		r.apply(ctx, change.Shares)
	}
	// Replay the newest withheld vector once the agent is healthy again.
	if healthy && r.deferred != nil {
		r.apply(ctx, r.deferred)
		r.deferred = nil
	}
}

// apply pushes one vector through the typed actuation path, counting the
// outcome: a refused push (unbound session, invalid vector) is lost, not
// deferred — there is nothing to replay it on.
func (r *RANSharing) apply(ctx *controller.Context, shares []float64) {
	if _, err := ctx.ApplyShares(r.ENB, controller.SharePlan{Shares: shares}); err != nil {
		r.Lost++
		return
	}
	r.Applied++
}
