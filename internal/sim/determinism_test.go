package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/transport"
	"flexran/internal/ue"
)

// detScenario builds a deliberately messy multi-eNodeB scenario: mixed
// channel models (including seeded fading), mixed traffic (CBR, full
// buffer, uplink), and impaired control channels with jitter and loss, so
// any engine-ordering divergence has plenty of state to surface in.
func detScenario() *sim.Sim {
	opts := controller.DefaultOptions()
	var enbs []sim.ENBSpec
	for e := 0; e < 8; e++ {
		spec := sim.ENBSpec{
			ID:    lte.ENBID(e + 1),
			Seed:  int64(e + 1),
			Agent: true,
			ToMaster: transport.Netem{
				OneWayTTI: e % 3, JitterTTI: e % 2, LossProb: 0.01, Seed: int64(e + 100),
			},
			ToAgent: transport.Netem{
				OneWayTTI: e % 2, Seed: int64(e + 200),
			},
		}
		for u := 0; u < 4; u++ {
			imsi := uint64(e*100 + u + 1)
			us := sim.UESpec{IMSI: imsi, Group: u % 2}
			switch u % 3 {
			case 0:
				us.Channel = radio.Fixed(lte.CQI(5 + e%10))
				us.DL = ue.NewFullBuffer()
			case 1:
				us.Channel = radio.NewGaussMarkov(9, 0.9, 2, int64(imsi))
				us.DL = ue.NewCBR(800)
				us.UL = ue.NewCBR(200)
			default:
				us.Channel = radio.NewSquareWave(4, 12, 50, 0)
				us.UL = ue.NewFullBuffer()
			}
			spec.UEs = append(spec.UEs, us)
		}
		enbs = append(enbs, spec)
	}
	return sim.MustNew(sim.Config{Master: &opts}, enbs...)
}

// worldSnapshot flattens everything observable about a finished run.
type worldSnapshot struct {
	SF        lte.Subframe
	Cycle     lte.Subframe
	Reports   map[string]interface{}
	RIBAgents []lte.ENBID
	RIBUEs    map[lte.ENBID][]protocol.UEStats
	RIBCells  map[lte.ENBID]protocol.CellStats
	RIBSF     map[lte.ENBID]lte.Subframe
	RIBCount  map[lte.ENBID]int
	RIBSize   int
	Bearers   map[uint64][2]uint64
	Meters    map[lte.ENBID][2]int64
}

func snapshot(s *sim.Sim) worldSnapshot {
	w := worldSnapshot{
		SF:       s.Now(),
		Cycle:    s.Master.Cycle(),
		Reports:  map[string]interface{}{},
		RIBUEs:   map[lte.ENBID][]protocol.UEStats{},
		RIBCells: map[lte.ENBID]protocol.CellStats{},
		RIBSF:    map[lte.ENBID]lte.Subframe{},
		RIBCount: map[lte.ENBID]int{},
		Bearers:  map[uint64][2]uint64{},
		Meters:   map[lte.ENBID][2]int64{},
	}
	for i, n := range s.Nodes {
		for j := range n.RNTIs {
			w.Reports[fmt.Sprintf("%d/%d", i, j)] = s.Report(i, j)
		}
		id := n.ENB.ID()
		w.Meters[id] = [2]int64{n.AgentMeter().TotalBytes(), n.MasterMeter().TotalBytes()}
	}
	rib := s.Master.RIB()
	w.RIBAgents = rib.Agents()
	w.RIBSize = rib.Size()
	for _, id := range w.RIBAgents {
		w.RIBUEs[id] = rib.UEsOf(id)
		if cs, ok := rib.CellStats(id, 0); ok {
			w.RIBCells[id] = cs
		}
		if sf, ok := rib.AgentSF(id); ok {
			w.RIBSF[id] = sf
		}
		w.RIBCount[id] = rib.UECount(id)
	}
	for _, b := range s.EPC.Bearers() {
		w.Bearers[b.IMSI] = [2]uint64{b.DLOffered, b.DLAccepted}
	}
	return w
}

// TestDeterminism is the engine's regression gate: the same scenario
// built and stepped twice must leave bit-for-bit identical per-UE
// metrics, RIB contents, bearer accounting and signaling byte counts. CI
// repeats it under -race.
func TestDeterminism(t *testing.T) {
	const ttis = 1200
	ref := detScenario()
	ref.Run(ttis)
	want := snapshot(ref)

	if len(want.RIBAgents) != 8 {
		t.Fatalf("reference run: RIB has %d agents, want 8", len(want.RIBAgents))
	}
	var delivered uint64
	for i := range ref.Nodes {
		delivered += ref.DeliveredDL(i)
	}
	if delivered == 0 {
		t.Fatal("reference run delivered no downlink traffic")
	}

	s := detScenario()
	s.Run(ttis)
	got := snapshot(s)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a second run diverged from the first")
		if !reflect.DeepEqual(got.Reports, want.Reports) {
			for k, wr := range want.Reports {
				if !reflect.DeepEqual(got.Reports[k], wr) {
					t.Errorf("  UE %s: got %+v want %+v", k, got.Reports[k], wr)
					break
				}
			}
		}
		if !reflect.DeepEqual(got.RIBUEs, want.RIBUEs) {
			t.Errorf("  RIB UE stats diverged")
		}
		if got.RIBSize != want.RIBSize {
			t.Errorf("  RIB size: got %d want %d", got.RIBSize, want.RIBSize)
		}
		if !reflect.DeepEqual(got.Bearers, want.Bearers) {
			t.Errorf("  bearer accounting diverged")
		}
		if !reflect.DeepEqual(got.Meters, want.Meters) {
			t.Errorf("  signaling meters diverged")
		}
	}
}

// TestDeterminismMidRunInspection steps two copies of one world in
// lockstep and compares live state every 100 TTIs, catching divergences
// that a final-state comparison could mask.
func TestDeterminismMidRunInspection(t *testing.T) {
	a, b := detScenario(), detScenario()
	for step := 0; step < 600; step++ {
		a.Step()
		b.Step()
		if step%100 != 99 {
			continue
		}
		for i := range a.Nodes {
			for j := range a.Nodes[i].RNTIs {
				ra, rb := a.Report(i, j), b.Report(i, j)
				if ra != rb {
					t.Fatalf("TTI %d eNB %d UE %d: first %+v second %+v",
						step, i, j, ra, rb)
				}
			}
		}
		if as, bs := a.Master.RIB().Size(), b.Master.RIB().Size(); as != bs {
			t.Fatalf("TTI %d: RIB size first %d second %d", step, as, bs)
		}
	}
}

// mobileScenario builds a handover-heavy world: four cells in a row, a
// walking UE population crossing the borders in both directions (plus
// static bystanders), geometry-derived CQI, jittery control channels and
// a registered mobility manager. Returns the sim with the manager wired.
func mobileScenario() (*sim.Sim, *apps.MobilityManager) {
	rmap := radio.NewMap(
		radio.Site{ENB: 1, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
		radio.Site{ENB: 2, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 800}, PowerDBm: 43}},
		radio.Site{ENB: 3, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 1600}, PowerDBm: 43}},
		radio.Site{ENB: 4, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 2400}, PowerDBm: 43}},
	)
	var enbs []sim.ENBSpec
	for e := 0; e < 4; e++ {
		id := lte.ENBID(e + 1)
		home := float64(e) * 800
		spec := sim.ENBSpec{
			ID: id, Seed: int64(e + 1), Agent: true,
			ToMaster: transport.Netem{OneWayTTI: e % 2, JitterTTI: e % 2, Seed: int64(e + 100)},
			ToAgent:  transport.Netem{OneWayTTI: e % 2, Seed: int64(e + 200)},
		}
		// One walker ping-ponging toward the next cell, one fast walker
		// spanning two cells, one static bystander.
		walk := func(imsi uint64, from, to, speed float64, dl ue.Generator) sim.UESpec {
			return sim.UESpec{
				IMSI: imsi,
				Channel: radio.NewGeoChannel(rmap, &radio.Waypoint{
					Path:     []radio.Point{{X: from}, {X: to}},
					SpeedMps: speed, PingPong: true,
				}, id),
				DL: dl,
			}
		}
		spec.UEs = append(spec.UEs,
			walk(uint64(e*100+1), home, home+800, 120, ue.NewCBR(400)),
			walk(uint64(e*100+2), home-400, home+1200, 250, ue.NewCBR(200)),
			sim.UESpec{
				IMSI:    uint64(e*100 + 3),
				Channel: radio.NewGeoChannel(rmap, radio.Static(radio.Point{X: home}), id),
				DL:      ue.NewFullBuffer(),
			},
		)
		enbs = append(enbs, spec)
	}
	opts := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &opts}, enbs...)
	mm := apps.NewMobilityManager()
	s.Master.Register(mm, 5)
	return s, mm
}

// mobileSnapshot flattens everything observable about a mobile run,
// keyed by IMSI (UEs migrate between nodes, so index-based lookups from
// the static snapshot do not apply).
type mobileSnapshot struct {
	SF        lte.Subframe
	Reports   map[uint64]enb.UEReport
	Serving   map[uint64]lte.ENBID
	Handovers []sim.HandoverRecord
	Completed int
	RIBCount  map[lte.ENBID]int
	RIBUEs    map[lte.ENBID][]protocol.UEStats
	Bearers   map[uint64][2]uint64
	Meters    map[lte.ENBID][2]int64
}

func mobileSnap(s *sim.Sim, mm *apps.MobilityManager) mobileSnapshot {
	w := mobileSnapshot{
		SF:        s.Now(),
		Reports:   map[uint64]enb.UEReport{},
		Serving:   map[uint64]lte.ENBID{},
		Handovers: s.Handovers(),
		Completed: mm.Completed(),
		RIBCount:  map[lte.ENBID]int{},
		RIBUEs:    map[lte.ENBID][]protocol.UEStats{},
		Bearers:   map[uint64][2]uint64{},
		Meters:    map[lte.ENBID][2]int64{},
	}
	for _, b := range s.EPC.Bearers() {
		w.Bearers[b.IMSI] = [2]uint64{b.DLOffered, b.DLAccepted}
		if r, id, ok := s.ReportByIMSI(b.IMSI); ok {
			w.Reports[b.IMSI] = r
			w.Serving[b.IMSI] = id
		}
	}
	rib := s.Master.RIB()
	for _, n := range s.Nodes {
		id := n.ENB.ID()
		w.RIBCount[id] = rib.UECount(id)
		w.RIBUEs[id] = rib.UEsOf(id)
		w.Meters[id] = [2]int64{n.AgentMeter().TotalBytes(), n.MasterMeter().TotalBytes()}
	}
	return w
}

// TestDeterminismMobile is the handover-heavy determinism gate: a world
// full of migrating UEs must evolve bit-for-bit identically on every run —
// including handover counts, ordering and per-UE delivered bytes.
func TestDeterminismMobile(t *testing.T) {
	const ttis = 12000 // 12 s: several border crossings per walker
	ref, refMM := mobileScenario()
	ref.Run(ttis)
	want := mobileSnap(ref, refMM)

	if len(want.Handovers) < 4 {
		t.Fatalf("reference run executed only %d handovers; scenario too tame", len(want.Handovers))
	}
	for imsi, r := range want.Reports {
		if r.State != enb.StateConnected {
			t.Errorf("UE %d stranded in state %v", imsi, r.State)
		}
	}

	s, mm := mobileScenario()
	s.Run(ttis)
	got := mobileSnap(s, mm)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a second run diverged from the first")
		if !reflect.DeepEqual(got.Handovers, want.Handovers) {
			t.Errorf("  handover log: got %d records %+v\n  want %d %+v",
				len(got.Handovers), got.Handovers, len(want.Handovers), want.Handovers)
		}
		if !reflect.DeepEqual(got.Reports, want.Reports) {
			for imsi, wr := range want.Reports {
				if !reflect.DeepEqual(got.Reports[imsi], wr) {
					t.Errorf("  UE %d: got %+v\n  want %+v", imsi, got.Reports[imsi], wr)
					break
				}
			}
		}
		if !reflect.DeepEqual(got.RIBUEs, want.RIBUEs) {
			t.Errorf("  RIB UE stats diverged")
		}
		if !reflect.DeepEqual(got.Bearers, want.Bearers) {
			t.Errorf("  bearer accounting diverged")
		}
		if !reflect.DeepEqual(got.Meters, want.Meters) {
			t.Errorf("  signaling meters diverged")
		}
	}
}
