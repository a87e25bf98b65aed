package agent

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
)

// borderlineChannel places a UE where the neighbour cell beats the serving
// cell by ~5 dB: above the default 3 dB hysteresis, below a stricter one.
// Sites 1 km apart; at x=576 the distance ratio gives 37.6*log10(576/424)
// ≈ 5.0 dB of RSRP margin toward eNB 2.
func borderlineChannel() *radio.GeoChannel {
	m := radio.NewMap(
		radio.Site{ENB: 5, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
		radio.Site{ENB: 2, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 1000}, PowerDBm: 43}},
	)
	return radio.NewGeoChannel(m, radio.Static(radio.Point{X: 576}), 5)
}

// run steps the eNodeB well past attach + time-to-trigger so any armed A3
// episode has had every chance to fire (but stays inside the 240 TTI
// report-repeat interval).
func runA3Window(h *harness) {
	for i := 0; i < 150; i++ {
		h.enb.Step()
	}
}

// The regression the RRC module knobs exist for: with the default 3 dB
// hysteresis the borderline margin raises a MeasReport; reconfiguring a
// larger hysteresis through the policy path suppresses it. Before this
// subsystem the hysteresis/TTT parameters were dead configuration.
func TestA3HysteresisSuppressesBorderlineHandover(t *testing.T) {
	// Default hysteresis (3 dB): the 5 dB margin fires.
	h := newHarness(t, Options{})
	h.addConnectedUE(borderlineChannel())
	runA3Window(h)
	if n := h.countOf(protocol.KindMeasReport); n != 1 {
		t.Fatalf("default hysteresis: %d MeasReports, want exactly 1 (one per episode)", n)
	}
	rep := h.lastOf(protocol.KindMeasReport).Payload.(*protocol.MeasReport)
	if len(rep.Neighbors) != 1 || rep.Neighbors[0].ENB != 2 {
		t.Fatalf("report neighbours = %+v, want eNB 2", rep.Neighbors)
	}
	if margin := rep.Neighbors[0].RSRPdBm - rep.ServingRSRPdBm; margin < 4 || margin > 6 {
		t.Errorf("reported margin = %d dB, want ~5", margin)
	}
	if rep.IMSI != 1 {
		t.Errorf("report IMSI = %d, want 1", rep.IMSI)
	}

	// Stricter hysteresis (8 dB) pushed via policy reconfiguration: the
	// same borderline margin must stay silent.
	h2 := newHarness(t, Options{})
	if err := h2.agent.Reconfigure("rrc:\n  handover_hysteresis_db: 8\n"); err != nil {
		t.Fatal(err)
	}
	h2.addConnectedUE(borderlineChannel())
	runA3Window(h2)
	if n := h2.countOf(protocol.KindMeasReport); n != 0 {
		t.Errorf("8 dB hysteresis: %d MeasReports for a 5 dB margin, want none", n)
	}
}

// Time-to-trigger gates the report: the entering condition must hold for
// the configured TTIs before anything leaves the agent.
func TestA3TimeToTriggerDelaysReport(t *testing.T) {
	h := newHarness(t, Options{})
	if err := h.agent.Reconfigure("rrc:\n  time_to_trigger_tti: 100\n"); err != nil {
		t.Fatal(err)
	}
	h.addConnectedUE(borderlineChannel())
	// After attach the condition starts holding at the next measurement
	// sweep; within the first 90 TTIs no report may fire.
	for i := 0; i < 90; i++ {
		h.enb.Step()
	}
	if n := h.countOf(protocol.KindMeasReport); n != 0 {
		t.Fatalf("report fired %d times before TTT elapsed", n)
	}
	for i := 0; i < 200; i++ {
		h.enb.Step()
	}
	if n := h.countOf(protocol.KindMeasReport); n != 1 {
		t.Errorf("after TTT: %d reports, want 1", n)
	}
}

// While the A3 condition persists unresolved (no handover arrives), the
// agent repeats the report at the RRC report interval — the retry that
// keeps a lost HandoverCommand from stranding the UE for the episode.
func TestA3ReportRepeatsWhileConditionHolds(t *testing.T) {
	h := newHarness(t, Options{})
	h.addConnectedUE(borderlineChannel())
	for i := 0; i < 600; i++ {
		h.enb.Step()
	}
	// First report ~TTT after attach, repeats every 240 TTIs: >= 3 in
	// 600 TTIs, far fewer than the 60 measurement sweeps.
	if n := h.countOf(protocol.KindMeasReport); n < 3 || n > 5 {
		t.Errorf("%d MeasReports over 600 TTIs, want 3-5 (240 TTI repeat)", n)
	}

	// report_interval_tti 0 disables repeats: one report per episode.
	h2 := newHarness(t, Options{})
	if err := h2.agent.Reconfigure("rrc:\n  report_interval_tti: 0\n"); err != nil {
		t.Fatal(err)
	}
	h2.addConnectedUE(borderlineChannel())
	for i := 0; i < 600; i++ {
		h2.enb.Step()
	}
	if n := h2.countOf(protocol.KindMeasReport); n != 1 {
		t.Errorf("repeats disabled: %d MeasReports, want 1", n)
	}
}

// A UE without a measurement-capable channel produces no reports.
func TestA3RequiresMeasurableChannel(t *testing.T) {
	h := newHarness(t, Options{})
	h.addConnectedUE(radio.Fixed(3)) // weak, but no neighbour knowledge
	runA3Window(h)
	if n := h.countOf(protocol.KindMeasReport); n != 0 {
		t.Errorf("MeasReports without a NeighborMeasurer channel: %d", n)
	}
}

// A rejected HandoverCommand (no executor installed) must produce a
// negative ControlAck rather than silence.
func TestHandoverCommandWithoutExecutorNacks(t *testing.T) {
	h := newHarness(t, Options{})
	rnti := h.addConnectedUE(radio.Fixed(10))
	acksBefore := h.countOf(protocol.KindControlAck)
	h.agent.Deliver(protocol.New(5, 0, &protocol.HandoverCommand{
		RNTI: rnti, IMSI: 1, TargetENB: 2,
	}))
	acks := 0
	for _, m := range h.sent[0:] {
		if a, ok := m.Payload.(*protocol.ControlAck); ok && !a.OK {
			acks++
		}
	}
	if acks == 0 || h.countOf(protocol.KindControlAck) == acksBefore {
		t.Error("no negative ack for an unexecutable handover command")
	}
}

// eagerMeasReport is the MeasReport of a UE at subframe sf as the agent built
// it when the sweep filled RSRQ and ranked the neighbours itself: every
// site's RSRP and the RSSI taken eagerly, the neighbours ranked strongest
// first with ties to the lower eNodeB id, the serving RSRQ 0 when the
// serving eNodeB has no site.
func eagerMeasReport(m *radio.Map, ch *radio.GeoChannel, sf lte.Subframe, rnti lte.RNTI, imsi uint64) *protocol.MeasReport {
	p := ch.Position(sf)
	total := math.Pow(10, radio.NoiseDBm/10)
	for _, s := range m.Sites {
		total += math.Pow(10, (s.Tx.PowerDBm-radio.PathLossDB(radio.Distance(p, s.Tx.Pos)))/10)
	}
	rssi := 10 * math.Log10(total)
	var serving radio.Meas
	found := false
	var neighbors []radio.Meas
	for _, s := range m.Sites {
		rsrp := s.Tx.PowerDBm - radio.PathLossDB(radio.Distance(p, s.Tx.Pos))
		meas := radio.Meas{ENB: s.ENB, Cell: s.Cell, RSRPdBm: rsrp, RSRQdB: rsrp - rssi}
		switch {
		case s.ENB != ch.Serving():
			neighbors = append(neighbors, meas)
		case !found || rsrp > serving.RSRPdBm:
			serving, found = meas, true
		}
	}
	slices.SortStableFunc(neighbors, func(a, b radio.Meas) int {
		if c := cmp.Compare(b.RSRPdBm, a.RSRPdBm); c != 0 {
			return c
		}
		return cmp.Compare(a.ENB, b.ENB)
	})
	rep := &protocol.MeasReport{
		RNTI: rnti, IMSI: imsi, Cell: 0,
		ServingRSRPdBm: int32(math.Round(serving.RSRPdBm)),
		ServingRSRQdB:  int32(math.Round(serving.RSRQdB)),
	}
	for i, n := range neighbors {
		if i == maxReportNeighbors {
			break
		}
		rep.Neighbors = append(rep.Neighbors, protocol.NeighborMeas{
			ENB: n.ENB, Cell: n.Cell,
			RSRPdBm: int32(math.Round(n.RSRPdBm)),
			RSRQdB:  int32(math.Round(n.RSRQdB)),
		})
	}
	return rep
}

// heldCQI serves a fixed CQI over a GeoChannel's measurements, so a UE
// whose serving eNodeB has no site on the map still attaches.
type heldCQI struct{ *radio.GeoChannel }

func (heldCQI) CQI(lte.Subframe) lte.CQI { return 10 }

// checkEagerReports compares every MeasReport the harness sent with the one
// the eager sweep builds at the report's subframe, and returns their count.
func checkEagerReports(t *testing.T, h *harness, m *radio.Map, ch *radio.GeoChannel, rnti lte.RNTI) int {
	t.Helper()
	n := 0
	for _, msg := range h.sent {
		got, ok := msg.Payload.(*protocol.MeasReport)
		if !ok {
			continue
		}
		n++
		if want := eagerMeasReport(m, ch, msg.SF, rnti, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("report at sf %d:\n got %+v\nwant %+v", msg.SF, got, want)
		}
	}
	return n
}

// The RSRQ and the ranking computed only when a report fires give the same
// MeasReport as the eager sweep: a UE served by eNB 5 walks a 4 x 4 grid
// (plus a second carrier of eNB 7) through A3 episodes, along lines where
// neighbours tie on RSRP, and every report it sends is compared.
func TestA3ReportMatchesEagerMeasurement(t *testing.T) {
	var sites []radio.Site
	for e := 0; e < 16; e++ {
		sites = append(sites, radio.Site{ENB: lte.ENBID(e + 1), Tx: radio.Transmitter{
			Pos: radio.Point{X: float64(e%4) * 900, Y: float64(e/4) * 900}, PowerDBm: 43,
		}})
	}
	sites = append(sites, radio.Site{ENB: 7, Cell: 1, Tx: radio.Transmitter{Pos: radio.Point{X: 1800, Y: 450}, PowerDBm: 40}})
	m := radio.NewMap(sites...)
	ch := radio.NewGeoChannel(m, &radio.Waypoint{
		Path:     []radio.Point{{X: 0, Y: 900}, {X: 1350, Y: 450}, {X: 2700, Y: 450}, {X: 2250, Y: 1800}},
		SpeedMps: 400, PingPong: true,
	}, 5)
	h := newHarness(t, Options{})
	rnti := h.addConnectedUE(ch)
	for i := 0; i < 12000; i++ {
		h.enb.Step()
	}
	n := checkEagerReports(t, h, m, ch, rnti)
	t.Logf("%d MeasReports compared", n)
	if n < 5 {
		t.Fatalf("%d MeasReports over the walk, want at least 5", n)
	}
	if rep := h.lastOf(protocol.KindMeasReport).Payload.(*protocol.MeasReport); len(rep.Neighbors) != maxReportNeighbors {
		t.Errorf("last report lists %d neighbours, want the %d strongest", len(rep.Neighbors), maxReportNeighbors)
	}
}

// A UE whose serving eNodeB has no site reports serving RSRP and RSRQ 0,
// as the eager sweep did.
func TestA3ReportWithoutServingSite(t *testing.T) {
	m := radio.NewMap(
		radio.Site{ENB: 2, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
		radio.Site{ENB: 3, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 500}, PowerDBm: 43}},
	)
	// 2 m from eNB 2's site: its RSRP is above 0 dBm + the 3 dB hysteresis.
	ch := radio.NewGeoChannel(m, radio.Static(radio.Point{X: 2}), 5)
	h := newHarness(t, Options{})
	rnti := h.addConnectedUE(heldCQI{ch})
	runA3Window(h)
	if n := checkEagerReports(t, h, m, ch, rnti); n != 1 {
		t.Fatalf("%d MeasReports, want 1", n)
	}
	rep := h.lastOf(protocol.KindMeasReport).Payload.(*protocol.MeasReport)
	if rep.ServingRSRPdBm != 0 || rep.ServingRSRQdB != 0 || len(rep.Neighbors) != 2 || rep.Neighbors[1].RSRQdB == 0 {
		t.Errorf("report %+v: want serving RSRP and RSRQ 0 beside a measured neighbour", rep)
	}
}
