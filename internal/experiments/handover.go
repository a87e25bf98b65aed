package experiments

// fig_handover: the mobility-management experiment the paper's Table 1
// sketches but never measures — ping-pong rate versus A3 hysteresis. A
// population of UEs wanders randomly around the border between two cells;
// the serving agents run A3 with a swept hysteresis and the master's
// MobilityManager executes the handovers. Small hysteresis chases every
// fluctuation of the geometry (rapid A-B-A ping-pongs); large hysteresis
// suppresses handovers entirely and strands UEs on the weak side. The
// report shows total handovers, ping-pongs (a return handover within the
// classic 3 s window) and the resulting ping-pong rate per setting.

import (
	"fmt"

	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/ue"
)

// pingPongWindowTTI is the classic 3GPP minimum-time-of-stay window: a
// handover reversed within it counts as a ping-pong.
const pingPongWindowTTI = 3000

// FigHandoverResult is the ping-pong-vs-hysteresis sweep.
type FigHandoverResult struct {
	HysteresisDB []float64
	Handovers    []int
	PingPongs    []int
	// Stranded counts UEs finishing the run on the weaker cell.
	Stranded []int
}

// ID implements Result.
func (*FigHandoverResult) ID() string { return "fig_handover" }

// Rate returns the ping-pong fraction for sweep index i.
func (r *FigHandoverResult) Rate(i int) float64 {
	if r.Handovers[i] == 0 {
		return 0
	}
	return float64(r.PingPongs[i]) / float64(r.Handovers[i])
}

func (r *FigHandoverResult) String() string {
	t := newTable("fig_handover: ping-pong rate vs A3 hysteresis (2 cells, border walkers)")
	t.row("hysteresis", "handovers", "ping-pongs", "pp-rate", "stranded")
	for i := range r.HysteresisDB {
		t.row(
			fmt.Sprintf("%.0f dB", r.HysteresisDB[i]),
			fmt.Sprintf("%d", r.Handovers[i]),
			fmt.Sprintf("%d", r.PingPongs[i]),
			f2(r.Rate(i)),
			fmt.Sprintf("%d", r.Stranded[i]),
		)
	}
	return t.String()
}

func init() { register("fig_handover", runFigHandover) }

func runFigHandover(scale float64) Result {
	res := &FigHandoverResult{HysteresisDB: []float64{0, 1, 3, 6}}
	ttis := int(40000 * scale) // 40 simulated seconds at full scale
	if ttis < 4000 {
		ttis = 4000
	}
	for _, hys := range res.HysteresisDB {
		ho, pp, stranded := runHandoverCase(hys, ttis)
		res.Handovers = append(res.Handovers, ho)
		res.PingPongs = append(res.PingPongs, pp)
		res.Stranded = append(res.Stranded, stranded)
	}
	return res
}

// runHandoverCase runs one hysteresis setting and reports handover count,
// ping-pong count and stranded UEs.
func runHandoverCase(hysteresisDB float64, ttis int) (handovers, pingPongs, stranded int) {
	rmap := radio.NewMap(
		radio.Site{ENB: 1, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 0}, PowerDBm: 43}},
		radio.Site{ENB: 2, Cell: 0, Tx: radio.Transmitter{Pos: radio.Point{X: 1000}, PowerDBm: 43}},
	)
	const walkers = 6
	channels := map[uint64]*radio.GeoChannel{}
	spec1 := sim.ENBSpec{ID: 1, Agent: true, Seed: 1}
	for u := 0; u < walkers; u++ {
		imsi := uint64(100 + u)
		ch := radio.NewGeoChannel(rmap, &radio.RandomWaypoint{
			Min: radio.Point{X: 430, Y: -60}, Max: radio.Point{X: 570, Y: 60},
			SpeedMps: 45, Seed: int64(u + 1),
		}, 1)
		channels[imsi] = ch
		spec1.UEs = append(spec1.UEs, sim.UESpec{
			IMSI: imsi, Channel: ch, DL: ue.NewCBR(200),
		})
	}
	opts := controller.DefaultOptions()
	s := sim.MustNew(sim.Config{Master: &opts},
		spec1, sim.ENBSpec{ID: 2, Agent: true, Seed: 2})
	mm := apps.NewMobilityManager()
	s.Master.Register(mm, 5)
	s.WaitAttached(2000)
	for _, n := range s.Nodes {
		doc := fmt.Sprintf("rrc:\n  handover_hysteresis_db: %g\n", hysteresisDB)
		if err := n.Agent.Reconfigure(doc); err != nil {
			panic(err)
		}
	}
	s.Run(ttis)

	handovers = len(s.Handovers())
	pingPongs = s.PingPongs(pingPongWindowTTI)
	// A UE is stranded when it finishes the run disconnected, or served by
	// the clearly weaker cell at its final position.
	for imsi, ch := range channels {
		rep, servingENB, ok := s.ReportByIMSI(imsi)
		if !ok || rep.State != enb.StateConnected {
			stranded++
			continue
		}
		pos := ch.Position(s.Now())
		rsrp1, _ := rmap.RSRPdBm(pos, 1)
		rsrp2, _ := rmap.RSRPdBm(pos, 2)
		var better lte.ENBID
		switch {
		case rsrp2 > rsrp1+6:
			better = 2
		case rsrp1 > rsrp2+6:
			better = 1
		default:
			continue // border region: either cell is fine
		}
		if servingENB != better {
			stranded++
		}
	}
	return handovers, pingPongs, stranded
}
