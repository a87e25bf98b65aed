package enb

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
)

// oracleGroup is one side of TestSharedScratchMatchesPrivate: its
// eNodeBs, and what their hooks saw during the Step being compared.
type oracleGroup struct {
	enbs []*ENB
	log  strings.Builder
}

// grants is what the last Step granted each UE of e: delivered bytes per
// direction, the HARQ state and the last scheduled subframe, read off the
// hot records in RNTI order. For a direction the default round robin
// schedules, it is the outcome of every allocation that Step applied.
func grants(e *ENB) string {
	var b strings.Builder
	for _, s := range e.order {
		h := &e.hot[s]
		fmt.Fprintf(&b, "%d:%d/%d/%d/%d/%d ", h.rnti, h.ttiDL, h.ttiUL, h.retxDL, h.retxUL, h.lastSched)
	}
	return b.String()
}

// TestSharedScratchMatchesPrivate is the oracle for the engine's one
// scheduler working set: six eNodeBs stepped one after the other on a
// shared Workset must behave exactly like the same six on private ones.
// The eNodeBs differ in cells, UE counts and channels (fixed, square-wave
// and measuring geometric ones), carry downlink and uplink traffic, time
// attaches out after four TTIs and see UEs added, removed and handed over
// between them; a third of them schedule the downlink through a hook. One
// operation sequence drives both groups. After every Step the UE reports,
// the grants, the hooks' scheduling inputs and allocation lists, the
// measurements and the events must be equal across the two groups.
func TestSharedScratchMatchesPrivate(t *testing.T) {
	const n = 6
	var sites []radio.Site
	for k := 0; k < n; k++ {
		sites = append(sites, radio.Site{
			ENB: lte.ENBID(k + 1), Cell: 0,
			Tx: radio.Transmitter{Pos: radio.Point{X: 600 * float64(k)}, PowerDBm: 43},
		})
	}
	rmap := radio.NewMap(sites...)
	cellsOf := func(k int) int { return 1 + k%2 }
	// channel builds one channel of the given kind; each group gets its
	// own instance, since a geometric channel keeps state.
	channel := func(kind, k int) radio.Model {
		switch kind % 3 {
		case 0:
			return radio.Fixed(lte.CQI(1 + (kind+k)%15))
		case 1:
			return radio.NewSquareWave(3, 13, lte.Subframe(5+k), 0)
		}
		home := 600 * float64(k)
		return radio.NewGeoChannel(rmap, &radio.Waypoint{
			Path:     []radio.Point{{X: home - 300}, {X: home + 300}},
			SpeedMps: 40 + 10*float64(kind%5), PingPong: true,
		}, lte.ENBID(k+1))
	}

	build := func(ws *Workset) *oracleGroup {
		g := &oracleGroup{}
		for k := 0; k < n; k++ {
			var cells []protocol.CellConfig
			for c := 0; c < cellsOf(k); c++ {
				cells = append(cells, DefaultCell(lte.CellID(c)))
			}
			e := New(Config{ID: lte.ENBID(k + 1), Cells: cells, Seed: int64(k), AttachTimeoutTTI: 4, Workset: ws})
			hooks := Hooks{
				OnUEEvent: func(ev protocol.UEEventType, rnti lte.RNTI, c lte.CellID) {
					fmt.Fprintf(&g.log, "event %v %d %d\n", ev, rnti, c)
				},
				OnMeasurement: func(rnti lte.RNTI, c lte.CellID, serving radio.Meas, neighbors []radio.Meas) {
					radio.RankNeighbors(neighbors) // a hook may reorder the scratch
					fmt.Fprintf(&g.log, "meas %d %d %+v %+v\n", rnti, c, serving, neighbors)
				},
			}
			if k%3 == 1 {
				pf := sched.NewProportionalFair()
				hooks.DLSchedule = func(c lte.CellID, in sched.Input) []sched.Alloc {
					out := pf.Schedule(in)
					fmt.Fprintf(&g.log, "dl %d %+v -> %+v\n", c, in, out)
					return out
				}
			}
			e.SetHooks(hooks)
			g.enbs = append(g.enbs, e)
		}
		return g
	}
	shared, private := build(new(Workset)), build(nil)
	groups := [2]*oracleGroup{shared, private}
	if shared.enbs[0].ws != shared.enbs[n-1].ws || private.enbs[0].ws == private.enbs[n-1].ws {
		t.Fatal("the groups do not share, or do not separate, their working sets")
	}

	rnd := rand.New(rand.NewPCG(7, 43))
	imsi := uint64(0)
	add := func(k int) {
		imsi++
		kind, cell := rnd.IntN(30), lte.CellID(rnd.IntN(cellsOf(k)))
		var rntis [2]lte.RNTI
		for i, g := range groups {
			rnti, err := g.enbs[k].AddUE(UEParams{IMSI: imsi, Cell: cell, Channel: channel(kind, k), Group: kind % 3})
			if err != nil {
				t.Fatal(err)
			}
			rntis[i] = rnti
		}
		if rntis[0] != rntis[1] {
			t.Fatalf("eNB %d: RNTI %d shared, %d private", k+1, rntis[0], rntis[1])
		}
	}
	for k := 0; k < n; k++ {
		for u := 0; u <= k; u++ {
			add(k)
		}
	}

	handovers, restarts, hooked, measured := 0, 0, 0, 0
	for step := 0; step < 600; step++ {
		// One operation sequence, applied to both groups.
		for k := 0; k < n; k++ {
			ues := shared.enbs[k].UEs()
			for _, rnti := range ues {
				dl, ul := rnd.IntN(3)*rnd.IntN(9000), rnd.IntN(2)*rnd.IntN(1500)
				for _, g := range groups {
					g.enbs[k].DLEnqueue(rnti, dl)
					g.enbs[k].ULEnqueue(rnti, ul)
				}
			}
			switch op := rnd.IntN(40); {
			case op == 0 && len(ues) < 12:
				add(k)
			case op == 1 && len(ues) > 0:
				rnti := ues[rnd.IntN(len(ues))]
				for _, g := range groups {
					g.enbs[k].RemoveUE(rnti)
				}
			case op == 2 && len(ues) > 0:
				rnti, to := ues[rnd.IntN(len(ues))], rnd.IntN(n)
				if to == k {
					break
				}
				cell := lte.CellID(rnd.IntN(cellsOf(to)))
				for _, g := range groups {
					st, ok := g.enbs[k].ReleaseUE(rnti)
					if !ok {
						t.Fatalf("step %d: eNB %d lost UE %d", step, k+1, rnti)
					}
					st.Params.Cell = cell
					if rt, ok := st.Params.Channel.(radio.Retargetable); ok {
						rt.Retarget(lte.ENBID(to + 1))
					}
					if _, err := g.enbs[to].AdmitUE(st); err != nil {
						t.Fatal(err)
					}
				}
				handovers++
			}
		}
		// Step every eNodeB of both groups, in the same order, and
		// compare what each Step did.
		for k := 0; k < n; k++ {
			var logs [2]string
			for i, g := range groups {
				g.log.Reset()
				g.enbs[k].Step()
				logs[i] = g.log.String()
			}
			a, b := shared.enbs[k], private.enbs[k]
			if logs[0] != logs[1] {
				t.Fatalf("step %d eNB %d: hooks saw\n%s\non the shared working set, and\n%s\non a private one", step, k+1, logs[0], logs[1])
			}
			if ga, gb := grants(a), grants(b); ga != gb {
				t.Fatalf("step %d eNB %d: grants %s shared, %s private", step, k+1, ga, gb)
			}
			ra, rb := a.UEReports(), b.UEReports()
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("step %d eNB %d: reports\n%+v shared,\n%+v private", step, k+1, ra, rb)
			}
			for _, r := range ra {
				if r.AttachTries > 1 {
					restarts++
				}
			}
			hooked += strings.Count(logs[0], "dl ")
			measured += strings.Count(logs[0], "meas ")
		}
	}
	// The sequence must have exercised what the shared set could break.
	if handovers == 0 || restarts == 0 || hooked == 0 || measured == 0 {
		t.Fatalf("the sequence is too tame: %d handovers, %d restarted-attach reports, %d hooked DL calls, %d measurements",
			handovers, restarts, hooked, measured)
	}
	var delivered uint64
	for _, e := range shared.enbs {
		for _, r := range e.UEReports() {
			delivered += r.DLDelivered + r.ULDelivered
		}
	}
	if delivered == 0 {
		t.Fatal("nothing was delivered")
	}
}
