package broker

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

// Script is the RAN-sharing application of §6.3 in its static form: a
// share schedule played back against one eNodeB through the broker's
// actuator. It plans nothing — SLAs, admission and re-planning are the
// Broker's.
type Script struct {
	// ENB is the shared eNodeB; pushes go to its MAC downlink slicer.
	ENB lte.ENBID
	// Plan is the share schedule, ascending by At.
	Plan []ShareChange

	actuator
	next int
}

// NewScript builds the playback app for the MAC downlink slicer.
func NewScript(enb lte.ENBID, plan []ShareChange) *Script {
	return &Script{ENB: enb, Plan: plan}
}

// Name implements controller.App.
func (*Script) Name() string { return "ran-sharing" }

// OnTick implements controller.TickerApp.
func (s *Script) OnTick(ctx *controller.Context, cycle lte.Subframe) {
	for s.next < len(s.Plan) && cycle >= s.Plan[s.next].At {
		s.push(ctx, s.ENB, s.Plan[s.next].Shares)
		s.next++
	}
	s.replay(ctx)
}
