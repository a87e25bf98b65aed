package enb

import (
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
)

func newENB(t *testing.T) *ENB {
	t.Helper()
	return New(Config{ID: 1, Seed: 1})
}

// addConnected attaches a UE and steps until attach completes.
func addConnected(t *testing.T, e *ENB, ch radio.Model) lte.RNTI {
	t.Helper()
	rnti, err := e.AddUE(UEParams{IMSI: 1000 + uint64(rnti0(e)), Cell: 0, Channel: ch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && !e.Connected(rnti); i++ {
		e.Step()
	}
	if !e.Connected(rnti) {
		t.Fatalf("UE %d failed to attach", rnti)
	}
	return rnti
}

func rnti0(e *ENB) int { return len(e.UEs()) }

// setChannel swaps a live UE's channel model in place, a channel that
// changes after attach. A steady channel's CQI is read once, so the slot
// forgets the held value and the next Step reads the new model.
func setChannel(t *testing.T, e *ENB, rnti lte.RNTI, ch radio.Model) {
	t.Helper()
	s := slotFor(t, e, rnti)
	e.trackChannel(e.cold[s].params.Channel, -1)
	e.cold[s].params.Channel = ch
	e.hot[s].steady, e.hot[s].cqiHeld = e.trackChannel(ch, 1), false
}

func TestAttachCompletes(t *testing.T) {
	e := newENB(t)
	events := []protocol.UEEventType{}
	e.SetHooks(Hooks{OnUEEvent: func(ev protocol.UEEventType, _ lte.RNTI, _ lte.CellID) {
		events = append(events, ev)
	}})
	rnti, err := e.AddUE(UEParams{IMSI: 1, Cell: 0, Channel: radio.Fixed(15)})
	if err != nil {
		t.Fatal(err)
	}
	if e.Connected(rnti) {
		t.Fatal("must not be connected before any subframe ran")
	}
	for i := 0; i < 50 && !e.Connected(rnti); i++ {
		e.Step()
	}
	if !e.Connected(rnti) {
		t.Fatal("attach did not complete at CQI 15")
	}
	// RandomAccess must precede Attach.
	var sawRA, sawAttach bool
	for _, ev := range events {
		if ev == protocol.UEEventRandomAccess {
			sawRA = true
		}
		if ev == protocol.UEEventAttach {
			if !sawRA {
				t.Error("attach before random access")
			}
			sawAttach = true
		}
	}
	if !sawAttach {
		t.Error("no attach event fired")
	}
}

func TestAttachRetriesWhenUnscheduled(t *testing.T) {
	e := New(Config{ID: 1, Seed: 1, AttachTimeoutTTI: 100})
	// A control plane that never schedules anything.
	e.SetHooks(Hooks{
		DLSchedule: func(lte.CellID, sched.Input) []sched.Alloc { return nil },
		ULSchedule: func(lte.CellID, sched.Input) []sched.Alloc { return nil },
	})
	rnti, _ := e.AddUE(UEParams{IMSI: 1, Cell: 0, Channel: radio.Fixed(15)})
	for i := 0; i < 350; i++ {
		e.Step()
	}
	if e.Connected(rnti) {
		t.Fatal("UE attached without any scheduling")
	}
	r, _ := e.UEReport(rnti)
	if r.AttachTries < 3 {
		t.Errorf("attach attempts = %d, want >= 3 after 350 TTIs with 100 TTI timeout", r.AttachTries)
	}
}

func TestDownlinkThroughputCalibration(t *testing.T) {
	// Full-buffer DL at CQI 15 over 10 MHz must reach the calibrated
	// ~27.5 Mb/s MAC rate (paper: 25 Mb/s at application level).
	e := newENB(t)
	rnti := addConnected(t, e, radio.Fixed(15))
	const seconds = 3
	for i := 0; i < seconds*lte.TTIsPerSecond; i++ {
		e.DLEnqueue(rnti, 1<<20) // keep the queue saturated
		e.Step()
	}
	r, _ := e.UEReport(rnti)
	mbps := float64(r.DLDelivered) * 8 / 1e6 / seconds
	if mbps < 24 || mbps > 29 {
		t.Errorf("DL full-buffer throughput = %.2f Mb/s, want ~25-28", mbps)
	}
}

func TestUplinkThroughputCalibration(t *testing.T) {
	e := newENB(t)
	rnti := addConnected(t, e, radio.Fixed(15))
	const seconds = 3
	for i := 0; i < seconds*lte.TTIsPerSecond; i++ {
		e.ULEnqueue(rnti, 1<<20)
		e.Step()
	}
	r, _ := e.UEReport(rnti)
	mbps := float64(r.ULDelivered) * 8 / 1e6 / seconds
	if mbps < 7 || mbps > 10 {
		t.Errorf("UL full-buffer throughput = %.2f Mb/s, want ~8-9", mbps)
	}
}

func TestThroughputScalesWithCQI(t *testing.T) {
	rate := func(c lte.CQI) float64 {
		e := newENB(t)
		rnti := addConnected(t, e, radio.Fixed(15))
		// Switch to the probed CQI after attach.
		setChannel(t, e, rnti, radio.Fixed(c))
		for i := 0; i < 2000; i++ {
			e.DLEnqueue(rnti, 1<<20)
			e.Step()
		}
		r, _ := e.UEReport(rnti)
		return float64(r.DLDelivered)
	}
	r4, r10 := rate(4), rate(10)
	if r10 < 3*r4 {
		t.Errorf("CQI 10 (%v) should be >3x CQI 4 (%v)", r10, r4)
	}
}

func TestQueueCapDropsExcess(t *testing.T) {
	e := New(Config{ID: 1, Seed: 1, DLQueueCap: 1000})
	rnti := addConnected(t, e, radio.Fixed(15))
	accepted := e.DLEnqueue(rnti, 5000)
	if accepted > 1000 {
		t.Errorf("accepted %d bytes into a 1000-byte queue", accepted)
	}
	r, _ := e.UEReport(rnti)
	if r.DLDropped == 0 {
		t.Error("drops not accounted")
	}
}

func TestABSPatternMutesSelectively(t *testing.T) {
	e := newENB(t)
	rnti := addConnected(t, e, radio.Fixed(15))
	// Blank subframes 0-3 of every frame (4 ABS / 10 sf, the Fig. 10 config)
	// the way the macro cell's scheduler does: it grants nothing there.
	macro := sched.NewABSSwitch("macro", func(sf lte.Subframe) bool { return sf.Index() < 4 }, sched.NewRoundRobin(), nil)
	e.SetHooks(Hooks{DLSchedule: func(_ lte.CellID, in sched.Input) []sched.Alloc { return macro.Schedule(in) }})
	activeNormal, prev := 0, false
	for i := 0; i < 200; i++ {
		e.DLEnqueue(rnti, 100000)
		e.Step()
		// Activity history covers the subframe just run and the one before
		// it, which is what interference coupling asks about (sf-1); older
		// subframes read silent. The invariant: zero transmissions in ABS
		// subframes.
		sf := e.Now() - 1
		active := e.Active(0, sf)
		if active {
			if sf.Index() < 4 {
				t.Fatalf("transmission during ABS at %v", sf)
			}
			activeNormal++
		}
		if i > 0 && e.Active(0, sf-1) != prev {
			t.Fatalf("activity of %v not retained at %v", sf-1, sf)
		}
		if sf >= 2 && e.Active(0, sf-2) {
			t.Fatalf("%v still reads active at %v", sf-2, sf)
		}
		prev = active
	}
	if activeNormal == 0 {
		t.Error("no transmissions in normal subframes")
	}
}

func TestHARQStaleCQICausesRetransmissions(t *testing.T) {
	// Scheduling with an MCS far above the channel: most TBs fail, HARQ
	// counters grow, goodput collapses but stays nonzero thanks to retx
	// margin recovery.
	e := newENB(t)
	rnti := addConnected(t, e, radio.Fixed(15))
	setChannel(t, e, rnti, radio.Fixed(3)) // channel collapses
	e.SetHooks(Hooks{DLSchedule: func(_ lte.CellID, in sched.Input) []sched.Alloc {
		var out []sched.Alloc
		for _, u := range in.UEs {
			out = append(out, sched.Alloc{RNTI: u.RNTI, RBCount: in.TotalPRB, MCS: 28}) // reckless
		}
		return out
	}})
	for i := 0; i < 1000; i++ {
		e.DLEnqueue(rnti, 100000)
		e.Step()
	}
	r, _ := e.UEReport(rnti)
	if r.HARQRetx < 100 {
		t.Errorf("HARQ retx = %d, want many at diff=12", r.HARQRetx)
	}
}

func TestHARQSafeMCSLowLoss(t *testing.T) {
	e := newENB(t)
	rnti := addConnected(t, e, radio.Fixed(10))
	for i := 0; i < 1000; i++ {
		e.DLEnqueue(rnti, 100000)
		e.Step()
	}
	r, _ := e.UEReport(rnti)
	// 10% initial BLER with immediate recovery: retx well under 20%.
	if float64(r.HARQRetx) > 250 {
		t.Errorf("HARQ retx = %d over 1000 TTIs at matched MCS", r.HARQRetx)
	}
}

func TestRemoveUEFiresDetach(t *testing.T) {
	e := newENB(t)
	var detached []lte.RNTI
	e.SetHooks(Hooks{OnUEEvent: func(ev protocol.UEEventType, r lte.RNTI, _ lte.CellID) {
		if ev == protocol.UEEventDetach {
			detached = append(detached, r)
		}
	}})
	rnti := addConnected(t, e, radio.Fixed(15))
	e.RemoveUE(rnti)
	if len(detached) != 1 || detached[0] != rnti {
		t.Errorf("detach events = %v", detached)
	}
	if len(e.UEs()) != 0 {
		t.Error("UE still listed")
	}
	e.RemoveUE(rnti) // idempotent
}

func TestSchedulingRequestEventOnULActivity(t *testing.T) {
	e := newENB(t)
	var srs int
	rnti := addConnected(t, e, radio.Fixed(15))
	e.SetHooks(Hooks{OnUEEvent: func(ev protocol.UEEventType, _ lte.RNTI, _ lte.CellID) {
		if ev == protocol.UEEventSchedulingRequest {
			srs++
		}
	}})
	e.ULEnqueue(rnti, 100) // empty -> backlogged: one SR
	e.ULEnqueue(rnti, 100) // already backlogged: no SR
	if srs != 1 {
		t.Errorf("SR events = %d, want 1", srs)
	}
}

func TestReportsAndConversions(t *testing.T) {
	e := newENB(t)
	rnti := addConnected(t, e, radio.Fixed(12))
	e.DLEnqueue(rnti, 5000)
	e.Step()
	rep, ok := e.UEReport(rnti)
	if !ok {
		t.Fatal("missing report")
	}
	var tab protocol.UETable
	e.FillUETable(&tab, protocol.StatsAll)
	var ps protocol.UEStats
	tab.Row(0, &ps)
	if tab.Len() != 1 || ps.RNTI != rnti || ps.CQI != 12 || ps.DLQueue != uint64(rep.DLQueue) ||
		len(ps.SubbandCQI) != SubbandsAt10MHz || len(ps.LCs) != 3 || ps.LCs[2].Bytes != ps.DLQueue ||
		ps.RSRPdBm != -68 {
		t.Errorf("protocol stats = %+v", ps)
	}
	e.FillUETable(&tab, protocol.StatsRates)
	tab.Row(0, &ps)
	if ps.RNTI != rnti || ps.CQI != 0 || ps.DLQueue != 0 || len(ps.SubbandCQI) != 0 || len(ps.LCs) != 0 ||
		ps.DLRateKbps != uint32(rep.AvgDLKbps) || ps.RSRPdBm != -68 {
		t.Errorf("rates-only protocol stats = %+v", ps)
	}
	cells := e.CellReports()
	if len(cells) != 1 || cells[0].TotalPRB != 50 {
		t.Errorf("cell reports = %+v", cells)
	}
	pc := cells[0].ToProtocolCellStats()
	if pc.TotalPRB != 50 {
		t.Errorf("protocol cell stats = %+v", pc)
	}
	if _, ok := e.UEReport(9999); ok {
		t.Error("unknown UE reported")
	}
}

func TestConfigExport(t *testing.T) {
	e := New(Config{ID: 7, Cells: []protocol.CellConfig{DefaultCell(0), DefaultCell(1)}})
	cfg := e.Config()
	if cfg.ID != 7 || len(cfg.Cells) != 2 {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.Cells[0].Cell != 0 || cfg.Cells[1].Cell != 1 {
		t.Error("cells out of order")
	}
}

func TestAddUEUnknownCell(t *testing.T) {
	e := newENB(t)
	if _, err := e.AddUE(UEParams{Cell: 42}); err == nil {
		t.Error("unknown cell accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		e := New(Config{ID: 1, Seed: 99})
		rnti, _ := e.AddUE(UEParams{IMSI: 1, Cell: 0, Channel: radio.NewGaussMarkov(9, 0.95, 2, 5)})
		for i := 0; i < 3000; i++ {
			e.DLEnqueue(rnti, 20000)
			e.Step()
		}
		r, _ := e.UEReport(rnti)
		return r.DLDelivered
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}

func TestMultiUEFairSharing(t *testing.T) {
	// Default RR hooks: two saturated UEs at equal CQI should split the
	// cell roughly evenly.
	e := newENB(t)
	r1 := addConnected(t, e, radio.Fixed(10))
	r2 := addConnected(t, e, radio.Fixed(10))
	for i := 0; i < 3000; i++ {
		e.DLEnqueue(r1, 1<<20)
		e.DLEnqueue(r2, 1<<20)
		e.Step()
	}
	a, _ := e.UEReport(r1)
	b, _ := e.UEReport(r2)
	ratio := float64(a.DLDelivered) / float64(b.DLDelivered)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("unfair split: %d vs %d (ratio %.2f)", a.DLDelivered, b.DLDelivered, ratio)
	}
}
