package broker

import (
	"maps"
	"slices"

	"flexran/internal/controller"
	"flexran/internal/lte"
)

// actuator is the one share path from a planner to the members' slicers:
// both the broker and the scripted plan embed it. A push goes out through
// Context.ApplyShares only while the member reads below Suspect — a wedged
// agent would ack nothing and a recovering one would apply a stale
// interleaving — and otherwise is withheld, only the newest vector owed.
// The owner calls replay at the end of every OnTick, so an owed vector goes
// out on the first tick its member reads below Suspect again.
type actuator struct {
	// Applied counts pushes the command path accepted; Deferred counts
	// pushes withheld from a member at Suspect or worse; Lost counts
	// pushes the command path refused — no bound session
	// (controller.ErrNoSession) or a rejected vector.
	Applied  int
	Deferred int
	Lost     int

	// last is each member's last accepted vector (pushes repeating it are
	// dropped); owed is the newest vector withheld from each member, and
	// order the scratch replay sorts its members in.
	last  map[lte.ENBID][]float64
	owed  map[lte.ENBID][]float64
	order []lte.ENBID
}

// push offers one vector to one member.
func (a *actuator) push(ctx *controller.Context, enb lte.ENBID, shares []float64) {
	if ctx.RIB().HealthOf(enb) >= controller.Suspect {
		if a.owed == nil {
			a.owed = map[lte.ENBID][]float64{}
		}
		a.owed[enb] = append(a.owed[enb][:0], shares...)
		a.Deferred++
		return
	}
	// A healthy member is owed nothing: a later recovery must not replay
	// a vector this push supersedes.
	delete(a.owed, enb)
	if last, ok := a.last[enb]; ok && slices.Equal(last, shares) {
		return
	}
	if _, err := ctx.ApplyShares(enb, controller.SharePlan{Shares: shares}); err != nil {
		// Lost, not deferred: there is nothing to replay it on. Forget
		// the last accepted vector so the next push is not dropped.
		a.Lost++
		delete(a.last, enb)
		return
	}
	a.Applied++
	if a.last == nil {
		a.last = map[lte.ENBID][]float64{}
	}
	a.last[enb] = append(a.last[enb][:0], shares...)
}

// replay pushes each owed vector whose member reads below Suspect again,
// members in ascending id order.
func (a *actuator) replay(ctx *controller.Context) {
	if len(a.owed) == 0 {
		return
	}
	a.order = slices.AppendSeq(a.order[:0], maps.Keys(a.owed))
	slices.Sort(a.order)
	for _, enb := range a.order {
		if ctx.RIB().HealthOf(enb) < controller.Suspect {
			a.push(ctx, enb, a.owed[enb])
		}
	}
}
