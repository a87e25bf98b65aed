package enb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
)

// scanInput is schedInput as it was before the backlog counts and the
// hot record's cell copy: every live slot visited, the serving cell read
// from the cold record. It is the oracle for the hot-only filter.
func scanInput(e *ENB, c *cell, dir lte.Direction) []sched.UEInfo {
	var out []sched.UEInfo
	for _, s := range e.order {
		h, cold := &e.hot[s], &e.cold[s]
		if cold.params.Cell != c.cfg.Cell || h.state == StateDetached {
			continue
		}
		var queue int
		var avg float64
		if dir == lte.Downlink {
			queue = h.dlQueue
			avg = h.avgDL
			if h.state == StateAttaching {
				queue = h.sigPending
			}
		} else {
			if h.state != StateConnected {
				continue
			}
			queue = h.ulQueue
			avg = h.avgUL
		}
		if queue == 0 {
			continue
		}
		out = append(out, sched.UEInfo{
			RNTI: h.rnti, CQI: h.cqi, QueueBytes: queue, AvgRateKbps: avg,
			LastSched: h.lastSched, Group: cold.params.Group,
		})
	}
	return out
}

// scanWake is NextWake as it was before the backlog counts: a scan of
// every live UE for queued bytes, pending signaling or an attach in
// progress.
func scanWake(e *ENB, from lte.Subframe) lte.Subframe {
	if e.unsteady > 0 {
		return from
	}
	for _, s := range e.order {
		if h := &e.hot[s]; h.state == StateAttaching || h.dlQueue != 0 || h.ulQueue != 0 || h.sigPending != 0 {
			return from
		}
	}
	if e.hooks.OnMeasurement != nil && e.measurers > 0 {
		const p = DefaultMeasPeriodTTI
		return from + (p-from%p)%p
	}
	return lte.NeverSF
}

// checkCounts recounts the attaching, dlBacklog and ulBacklog counts from
// the live slots' records and compares them with the eNodeB's.
func checkCounts(e *ENB) error {
	var attaching, dl, ul int32
	for _, s := range e.order {
		h := &e.hot[s]
		if h.state == StateAttaching {
			attaching++
		}
		if h.dlQueue != 0 {
			dl++
		}
		if h.ulQueue != 0 {
			ul++
		}
	}
	if e.attaching != attaching || e.dlBacklog != dl || e.ulBacklog != ul {
		return fmt.Errorf("counts attaching/dl/ul = %d/%d/%d, recount %d/%d/%d",
			e.attaching, e.dlBacklog, e.ulBacklog, attaching, dl, ul)
	}
	return nil
}

// checkScans compares every answer the backlog counts, the hot cell and
// the held CQIs give with the scans and reads they replaced: the counts
// themselves, schedInput in both directions for every cell, whether
// runCell would skip a direction that has work, NextWake, and every held
// CQI against its channel.
func checkScans(e *ENB) error {
	if err := checkCounts(e); err != nil {
		return err
	}
	for _, s := range e.order {
		h, ch := &e.hot[s], e.cold[s].params.Channel
		c, ok := ch.(radio.ConstantCQI)
		if steady := ok && c.ConstantCQI(); h.steady != steady {
			return fmt.Errorf("UE %d: steady = %v, its channel says %v", h.rnti, h.steady, steady)
		}
		if h.cqiHeld && (!h.steady || h.cqi != ch.CQI(e.sf)) {
			return fmt.Errorf("UE %d holds CQI %d (steady %v), its channel reads %d", h.rnti, h.cqi, h.steady, ch.CQI(e.sf))
		}
	}
	for i := range e.cellList {
		c := &e.cellList[i]
		for _, dir := range []lte.Direction{lte.Downlink, lte.Uplink} {
			want := scanInput(e, c, dir)
			if got := e.schedInput(c, dir); !slices.Equal(got, want) {
				return fmt.Errorf("cell %d %v: schedInput\n got %+v\nwant %+v", c.cfg.Cell, dir, got, want)
			}
			skipped := e.ulBacklog == 0
			if dir == lte.Downlink {
				skipped = e.attaching == 0 && e.dlBacklog == 0
			}
			if skipped && len(want) > 0 {
				return fmt.Errorf("cell %d %v: the counts skip a direction with %d UEs to schedule", c.cfg.Cell, dir, len(want))
			}
		}
	}
	for _, from := range []lte.Subframe{e.sf, e.sf + 1, e.sf + 7} {
		if got, want := e.NextWake(from), scanWake(e, from); got != want {
			return fmt.Errorf("NextWake(%d) = %d, scan says %d", from, got, want)
		}
	}
	return nil
}

// TestENBStepMatchesScan is the property test behind the backlog counts:
// random downlink and uplink enqueues, Steps, attaches with a short attach
// deadline, detaches, handover releases and admissions on a two-cell
// eNodeB, under the default round robin and under a reckless scheduler
// that grants any RNTI, attaching UEs, other cells' UEs and unknown ones
// included. The event hook enqueues for a UE whose attach just completed
// and sometimes attaches a UE mid-Step. After every operation, and inside
// every hook call, the counts must equal a recount of the records; after
// every operation schedInput and NextWake must also answer like the scans
// they replaced, and every held CQI must be its channel's.
func TestENBStepMatchesScan(t *testing.T) {
	for _, reckless := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("reckless=%v/seed=%d", reckless, seed), func(t *testing.T) {
				stepMatchesScan(t, seed, reckless)
			})
		}
	}
}

func stepMatchesScan(t *testing.T, seed int64, reckless bool) {
	rnd := rand.New(rand.NewSource(seed))
	e := New(Config{
		ID: 1, Seed: seed, Cells: []protocol.CellConfig{DefaultCell(0), DefaultCell(1)},
		AttachSignalingBytes: 40 + rnd.Intn(400), AttachTimeoutTTI: 1 + rnd.Intn(6), DLQueueCap: 4000,
	})
	var step int
	var op string
	fail := func(where string, err error) {
		t.Helper()
		t.Fatalf("step %d (%s), %s: %v", step, op, where, err)
	}
	nextIMSI := uint64(1)
	add := func() {
		p := UEParams{IMSI: nextIMSI, Cell: lte.CellID(rnd.Intn(2)), Channel: radio.Fixed(1 + rnd.Intn(15)), Group: rnd.Intn(3)}
		if rnd.Intn(8) == 0 {
			p.Channel = radio.NewSquareWave(3, 13, 5, 1<<20) // keeps the eNodeB awake while it lives
		}
		nextIMSI++
		if _, err := e.AddUE(p); err != nil {
			t.Fatal(err)
		}
	}
	// live picks a live UE, or an RNTI no UE holds when none is.
	live := func() lte.RNTI {
		if ues := e.UEs(); len(ues) > 0 {
			return ues[rnd.Intn(len(ues))]
		}
		return lte.FirstUERNTI + lte.RNTI(rnd.Intn(100))
	}
	hooks := Hooks{OnUEEvent: func(ev protocol.UEEventType, rnti lte.RNTI, _ lte.CellID) {
		if err := checkCounts(e); err != nil {
			fail(fmt.Sprintf("in the %v event of %d", ev, rnti), err)
		}
		if ev != protocol.UEEventAttach || rnd.Intn(2) == 0 {
			return
		}
		e.DLEnqueue(rnti, rnd.Intn(2000))
		e.ULEnqueue(rnti, rnd.Intn(2000))
		if rnd.Intn(3) == 0 {
			add()
		}
	}}
	if reckless {
		grant := func(_ lte.CellID, in sched.Input) []sched.Alloc {
			if err := checkCounts(e); err != nil {
				fail("in the scheduler", err)
			}
			var allocs []sched.Alloc
			for i := rnd.Intn(5); i > 0; i-- {
				allocs = append(allocs, sched.Alloc{RNTI: live(), RBCount: rnd.Intn(20), MCS: lte.MCS(rnd.Intn(lte.MaxMCS + 1))})
			}
			return allocs
		}
		hooks.DLSchedule, hooks.ULSchedule = grant, grant
	}
	e.SetHooks(hooks)

	var released []HandoverState
	for step = 0; step < 300; step++ {
		switch k := rnd.Intn(20); {
		case k < 3:
			op = "add"
			add()
		case k < 4:
			op = "remove"
			e.RemoveUE(live())
		case k < 5:
			op = "release"
			if st, ok := e.ReleaseUE(live()); ok {
				released = append(released, st)
			}
		case k < 6 && len(released) > 0:
			op = "admit"
			st := released[0]
			released = released[1:]
			st.Params.Cell = lte.CellID(rnd.Intn(2))
			if _, err := e.AdmitUE(st); err != nil {
				t.Fatal(err)
			}
		case k < 9:
			op = "dl enqueue"
			e.DLEnqueue(live(), rnd.Intn(3000)-100)
		case k < 11:
			op = "ul enqueue"
			e.ULEnqueue(live(), rnd.Intn(3000)-100)
		default:
			op = "step"
			for i := rnd.Intn(4); i >= 0; i-- {
				e.Step()
			}
		}
		if err := checkScans(e); err != nil {
			fail("after it", err)
		}
	}
}
