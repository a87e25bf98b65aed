package enb

import "flexran/internal/lte"

// This file implements event-driven idle fast-forward: an eNodeB with no
// backlog, no attach procedures in flight, and a provably constant radio
// environment computes the next subframe at which executing Step would do
// observable work, and the simulation loop skips it until then. The
// contract is bit-for-bit equivalence: FastForward(to) must leave the
// eNodeB in exactly the state a sequence of idle Step calls would have.

// NextWake returns the earliest subframe >= from at which this eNodeB has
// observable per-TTI work of its own. It returns from itself when the
// eNodeB cannot be skipped at all (pending queues, attach supervision, or
// a time-varying channel whose per-TTI CQI refresh is observable), and
// lte.NeverSF when nothing is pending. Control-plane work (the agent's
// OnSubframe activity) is accounted separately by the caller; the
// measurement sweep is included here because its period belongs to the
// eNodeB configuration.
func (e *ENB) NextWake(from lte.Subframe) lte.Subframe {
	if e.unsteady > 0 {
		return from
	}
	h := &e.hot
	for _, s := range e.order {
		if h.state[s] == StateAttaching || h.dlQueue[s] != 0 || h.ulQueue[s] != 0 || h.sigPending[s] != 0 {
			return from
		}
	}
	wake := lte.NeverSF
	if e.hooks.OnMeasurement != nil && e.measurers > 0 {
		const p = DefaultMeasPeriodTTI
		next := from + (p-from%p)%p
		if next < wake {
			wake = next
		}
	}
	return wake
}

// FastForward advances the clock to sf without executing the skipped
// subframes, replaying the only state evolution an idle Step performs: the
// per-UE PF averages decay by one EWMA step per TTI. The decay is applied
// as a loop of the exact per-TTI update (not a closed form) so the float64
// bit patterns match the non-skipped execution. Per-cell usedPRB is zeroed
// — an idle runCell does that every TTI — while the activity ring is left
// stale on purpose: Active() treats entries from older subframes as
// silent, which is exactly what the skipped subframes were.
//
// FastForward composes: FF(a→b) then FF(b→c) equals FF(a→c), so callers
// may sync lagging eNodeBs opportunistically (mid-TTI accessors, late
// wake-ups on message arrival).
func (e *ENB) FastForward(to lte.Subframe) {
	if to <= e.sf {
		return
	}
	n := int(to - e.sf)
	h := &e.hot
	for _, s := range e.order {
		dl, ul := h.avgDL[s], h.avgUL[s]
		if dl == 0 && ul == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			dl = updateAvg(dl, 0)
			ul = updateAvg(ul, 0)
		}
		h.avgDL[s], h.avgUL[s] = dl, ul
	}
	for _, c := range e.cellList {
		c.usedPRB = 0
	}
	e.sf = to
}
