package sim

import (
	"reflect"
	"testing"

	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/ue"
)

// calendarWorld builds the wake calendar's oracle world: ten agent
// eNodeBs under a master whose periodic control tasks are all off, so
// nodes sleep for long stretches. Eight carry a sleeper the calendar files
// under a finite wake — Poisson (1, 5, 8), on/off (2, 4) or a CBR window
// (3, 6, 7) — and nodes 9 and 10 hold silent UEs and sleep with
// lte.NeverSF. Every UE's IMSI is 100×ID+1 (node 6 adds a silent 602).
func calendarWorld(noFF bool) *Sim {
	gens := []ue.Generator{
		&ue.Poisson{MeanKbps: 16, Seed: 1},
		&ue.OnOff{RateKbps: 150, OnTTI: 20, OffTTI: 280},
		&ue.CBR{RateKbps: 400, Start: 1500, Stop: 1501},
		&ue.OnOff{RateKbps: 100, OnTTI: 10, OffTTI: 390},
		&ue.Poisson{MeanKbps: 8, Seed: 5},
		&ue.CBR{RateKbps: 200, Start: 4000},
		&ue.CBR{RateKbps: 300, Start: 2600, Stop: 2700},
		&ue.Poisson{MeanKbps: 8, Seed: 8},
		nil,
		nil,
	}
	var specs []ENBSpec
	for i, g := range gens {
		id := lte.ENBID(i + 1)
		spec := ENBSpec{ID: id, Seed: int64(id), Agent: true, UEs: []UESpec{
			{IMSI: uint64(id)*100 + 1, Channel: radio.Fixed(lte.CQI(6 + i)), DL: g},
		}}
		if id == 6 {
			spec.UEs = append(spec.UEs, UESpec{IMSI: 602, Channel: radio.Fixed(11)})
		}
		specs = append(specs, spec)
	}
	quiet := controller.Options{NoResync: true}
	return MustNew(Config{Master: &quiet, NoFastForward: noFF}, specs...)
}

// calendarScript drives calendarWorld for 3,000 TTIs with early wakes
// aimed at filed sleepers: a link cut (500) and restore (900) on node 4
// and an agent restart (1100) on node 5, all fault-scripted; an EPC path
// switch (1300) that leaves node 3's UE bearer terminating at node 6, so
// node 3's one-TTI CBR burst at 1500 is a cross-eNodeB spill into node 6;
// and a handover of node 8's UE to node 7 (1800). Between steps it reads
// ReportByIMSI, which syncs sleeping clocks. check runs after every Step.
func calendarScript(t *testing.T, s *Sim, check func()) {
	t.Helper()
	s.InjectFaults(
		Fault{At: 500, Kind: FaultLinkCut, ENB: 4},
		Fault{At: 900, Kind: FaultLinkRestore, ENB: 4},
		Fault{At: 1100, Kind: FaultAgentRestart, ENB: 5},
	)
	imsis := []uint64{101, 201, 301, 401, 501, 601, 602, 701, 801, 901, 1001}
	for step := 0; step < 3000; step++ {
		switch s.Now() {
		case 1300:
			if err := s.EPC.Handover(301, 6, s.Nodes[5].RNTIs[1]); err != nil {
				t.Fatal(err)
			}
		case 1800:
			src := s.Nodes[7]
			src.link.pendingHO = append(src.link.pendingHO, protocol.HandoverCommand{
				RNTI: src.RNTIs[0], IMSI: 801, TargetENB: 7, TargetCell: 0,
			})
		}
		s.Step()
		check()
		s.ReportByIMSI(imsis[step%len(imsis)])
	}
}

// checkWakeCalendar verifies the engine's sleep bookkeeping right after
// the Step of subframe sf: every node due by sf ran the data phase, every
// lagging node is asleep and not due, and the calendar files exactly the
// sleepers with a finite wake, each once, under its current wake, in heap
// order, never holding more entries than there are nodes.
func checkWakeCalendar(t *testing.T, s *Sim) {
	t.Helper()
	sf := s.Now() - 1
	for _, n := range s.Nodes {
		now := n.ENB.Now()
		if n.wake <= sf && now != sf+1 {
			t.Fatalf("sf %d: eNB %d due at %d but its clock reads %d", sf, n.ENB.ID(), n.wake, now)
		}
		if now < sf+1 && (n.wake <= sf || s.awake.has(n.idx)) {
			t.Fatalf("sf %d: eNB %d lags at %d with wake %d, awake %v",
				sf, n.ENB.ID(), now, n.wake, s.awake.has(n.idx))
		}
		asleep := !s.awake.has(n.idx)
		if filed := s.cal.pos[n.idx] >= 0; filed != (asleep && n.wake != lte.NeverSF) {
			t.Fatalf("sf %d: eNB %d filed %v, asleep %v, wake %d", sf, n.ENB.ID(), filed, asleep, n.wake)
		}
	}
	if len(s.cal.h) > len(s.Nodes) {
		t.Fatalf("sf %d: calendar holds %d entries for %d nodes", sf, len(s.cal.h), len(s.Nodes))
	}
	for k, e := range s.cal.h {
		n := s.Nodes[e.node]
		switch {
		case s.cal.pos[e.node] != int32(k):
			t.Fatalf("sf %d: stale calendar entry %d for eNB %d (its slot is %d)", sf, k, n.ENB.ID(), s.cal.pos[e.node])
		case e.wake != n.wake || e.wake <= sf:
			t.Fatalf("sf %d: eNB %d filed under %d, wake %d", sf, n.ENB.ID(), e.wake, n.wake)
		case k > 0 && e.before(s.cal.h[(k-1)/2]):
			t.Fatalf("sf %d: calendar heap order broken at slot %d", sf, k)
		}
	}
}

// TestWakeCalendarStepsDueNodes is the wake calendar's oracle: in a world
// of sleepers hit by faults, a cross-eNodeB spill and a handover, every
// Step runs exactly the nodes that are due or woken early, the calendar
// stays an exact, duplicate-free index of the sleepers, and the run ends
// in the same world as with fast-forward off.
func TestWakeCalendarStepsDueNodes(t *testing.T) {
	s := calendarWorld(false)
	// Each early wake must hit a node the calendar holds, or a stale entry
	// could go unnoticed.
	filedBefore := map[lte.Subframe]lte.ENBID{500: 4, 900: 4, 1100: 5, 1500: 6, 1800: 7}
	peak := 0
	calendarScript(t, s, func() {
		checkWakeCalendar(t, s)
		peak = max(peak, len(s.cal.h))
		if id, ok := filedBefore[s.Now()]; ok && s.cal.pos[s.byENB[id].idx] < 0 {
			t.Fatalf("sf %d: eNB %d is not filed before its early wake", s.Now(), id)
		}
	})

	if peak < 6 {
		t.Errorf("calendar peaked at %d entries; the world no longer sleeps", peak)
	}
	for _, id := range []lte.ENBID{9, 10} {
		if n := s.byENB[id]; s.awake.has(n.idx) || n.wake != lte.NeverSF {
			t.Errorf("eNB %d: awake %v, wake %d; want an unfiled NeverSF sleeper", id, s.awake.has(n.idx), n.wake)
		}
	}
	if r, at, _ := s.ReportByIMSI(301); at != 6 || r.DLDelivered == 0 {
		t.Errorf("spill: IMSI 301 reads eNB %d, %d B delivered; want eNB 6 and traffic", at, r.DLDelivered)
	}
	if ho := s.Handovers(); len(ho) != 1 || ho[0].IMSI != 801 || ho[0].To != 7 {
		t.Errorf("handovers %+v; want IMSI 801 to eNB 7", ho)
	}
	for _, id := range []lte.ENBID{4, 5} {
		if e := s.byENB[id].Agent.Epoch(); e != 2 {
			t.Errorf("eNB %d agent epoch %d; want 2 after one reconnect", id, e)
		}
	}

	ref := calendarWorld(true)
	calendarScript(t, ref, func() {})
	reports := func(s *Sim) map[uint64]enb.UEReport {
		m := map[uint64]enb.UEReport{}
		for _, b := range s.EPC.Bearers() {
			m[b.IMSI], _, _ = s.ReportByIMSI(b.IMSI)
		}
		return m
	}
	if got, want := reports(s), reports(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("fast-forward changed the world:\n got %+v\nwant %+v", got, want)
	}
	if got, want := s.Handovers(), ref.Handovers(); !reflect.DeepEqual(got, want) {
		t.Errorf("fast-forward changed the handovers: %+v vs %+v", got, want)
	}
}
