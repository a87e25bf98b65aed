package enb

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
)

// refENB is the map-backed model of everything the UE-management and
// enqueue operations can observe: one record per live RNTI, resolved by
// hashing, no slots and no table. The eNodeB never steps in the test, so
// CQI, averages and deliveries stay zero on both sides.
type refENB struct {
	ues    map[lte.RNTI]*refUE
	next   lte.RNTI
	cap    int
	events []refEvent
}

type refUE struct {
	rep UEReport
	ch  radio.Model
}

type refEvent struct {
	ev   protocol.UEEventType
	rnti lte.RNTI
}

func (r *refENB) add(p UEParams, state UEState) *refUE {
	u := &refUE{rep: UEReport{RNTI: r.next, IMSI: p.IMSI, Cell: p.Cell, State: state, Group: p.Group}, ch: p.Channel}
	r.ues[r.next] = u
	r.next++
	return u
}

func (r *refENB) remove(rnti lte.RNTI) {
	if _, ok := r.ues[rnti]; ok {
		delete(r.ues, rnti)
		r.events = append(r.events, refEvent{protocol.UEEventDetach, rnti})
	}
}

func (r *refENB) dlEnqueue(rnti lte.RNTI, bytes int) int {
	u, ok := r.ues[rnti]
	if !ok || bytes <= 0 {
		return 0
	}
	if room := r.cap - u.rep.DLQueue; bytes > room {
		u.rep.DLDropped += uint64(bytes - room)
		bytes = room
	}
	u.rep.DLQueue += bytes
	return bytes
}

// TestENBMatchesMapReference is what licenses the direct-index RNTI table:
// over random UE churn — attach, detach, handover out and back in, enqueues,
// scheduler allocations — aimed at live, departed, never-assigned and
// reserved RNTIs alike, the eNodeB answers exactly like the map-resolving
// model, and no stale table entry ever reaches a recycled slot. After every
// operation the backlog counts must also equal a recount, and schedInput
// and NextWake must answer like the scans they replaced (checkScans).
func TestENBMatchesMapReference(t *testing.T) {
	const queueCap = 5000
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		e := New(Config{ID: 1, Seed: seed, DLQueueCap: queueCap})
		ref := &refENB{ues: map[lte.RNTI]*refUE{}, next: lte.FirstUERNTI, cap: queueCap}
		var events []refEvent
		e.SetHooks(Hooks{OnUEEvent: func(ev protocol.UEEventType, rnti lte.RNTI, _ lte.CellID) {
			events = append(events, refEvent{ev, rnti})
		}})
		var released []HandoverState
		nextIMSI := uint64(1)
		// pick aims at a live UE half the time, else anywhere in the range
		// handed out so far (mostly departed UEs), just past it, or at the
		// reserved values a remote scheduler could invent.
		pick := func() lte.RNTI {
			switch k := rnd.Intn(10); {
			case k < 5 && len(ref.ues) > 0:
				live := e.UEs()
				return live[rnd.Intn(len(live))]
			case k < 8:
				return lte.FirstUERNTI + lte.RNTI(rnd.Intn(int(ref.next-lte.FirstUERNTI)+3))
			}
			return []lte.RNTI{0, 1, lte.FirstUERNTI - 1, 0x7FFF, 0xFFFE, 0xFFFF}[rnd.Intn(6)]
		}
		for step := 0; step < 600; step++ {
			switch op := rnd.Intn(20); {
			case op < 4:
				p := UEParams{IMSI: nextIMSI, Channel: radio.Fixed(9), Group: rnd.Intn(3)}
				nextIMSI++
				want := ref.add(p, StateAttaching)
				want.rep.SigQueue, want.rep.AttachTries = DefaultAttachSignalingBytes, 1
				ref.events = append(ref.events, refEvent{protocol.UEEventRandomAccess, want.rep.RNTI})
				if got, err := e.AddUE(p); err != nil || got != want.rep.RNTI {
					t.Fatalf("seed %d step %d: AddUE = %d, %v; want %d", seed, step, got, err, want.rep.RNTI)
				}
			case op < 6:
				r := pick()
				e.RemoveUE(r)
				ref.remove(r)
			case op < 8:
				r := pick()
				st, ok := e.ReleaseUE(r)
				u, live := ref.ues[r]
				if ok != live {
					t.Fatalf("seed %d step %d: ReleaseUE(%d) ok = %v, want %v", seed, step, r, ok, live)
				}
				if !live {
					continue
				}
				want := HandoverState{
					Params:  UEParams{IMSI: u.rep.IMSI, Cell: u.rep.Cell, Channel: u.ch, Group: u.rep.Group},
					DLQueue: u.rep.DLQueue, ULQueue: u.rep.ULQueue,
					DLDropped: u.rep.DLDropped, AttachTries: u.rep.AttachTries,
				}
				if st != want {
					t.Fatalf("seed %d step %d: ReleaseUE(%d) = %+v, want %+v", seed, step, r, st, want)
				}
				ref.remove(r)
				st.DLQueue += rnd.Intn(2) * queueCap // sometimes more than the target's cap takes
				released = append(released, st)
			case op < 10 && len(released) > 0:
				st := released[len(released)-1]
				released = released[:len(released)-1]
				want := ref.add(st.Params, StateConnected)
				want.rep.DLQueue = min(st.DLQueue, queueCap)
				want.rep.DLDropped = st.DLDropped + uint64(st.DLQueue-want.rep.DLQueue)
				want.rep.ULQueue, want.rep.AttachTries = st.ULQueue, st.AttachTries
				ref.events = append(ref.events, refEvent{protocol.UEEventAttach, want.rep.RNTI})
				if got, err := e.AdmitUE(st); err != nil || got != want.rep.RNTI {
					t.Fatalf("seed %d step %d: AdmitUE = %d, %v; want %d", seed, step, got, err, want.rep.RNTI)
				}
			case op < 13:
				r, n := pick(), rnd.Intn(3000)-100
				if got, want := e.DLEnqueue(r, n), ref.dlEnqueue(r, n); got != want {
					t.Fatalf("seed %d step %d: DLEnqueue(%d, %d) = %d, want %d", seed, step, r, n, got, want)
				}
			case op < 15:
				r, n := pick(), rnd.Intn(3000)-100
				want := 0
				if u, ok := ref.ues[r]; ok && n > 0 {
					if u.rep.ULQueue == 0 {
						ref.events = append(ref.events, refEvent{protocol.UEEventSchedulingRequest, r})
					}
					u.rep.ULQueue += n
					want = n
				}
				if got := e.ULEnqueue(r, n); got != want {
					t.Fatalf("seed %d step %d: ULEnqueue(%d, %d) = %d, want %d", seed, step, r, n, got, want)
				}
			default:
				// A scheduling decision naming any RNTI at all. One uplink
				// PRB at MCS 0 carries no whole byte, so transmit changes
				// nothing and only the PRB count shows.
				var allocs []sched.Alloc
				want := 0
				for i := rnd.Intn(6); i > 0; i-- {
					r := pick()
					allocs = append(allocs, sched.Alloc{RNTI: r, RBCount: 1})
					if _, ok := ref.ues[r]; ok {
						want++
					}
				}
				if got := e.apply(&e.cellList[0], 0, lte.Uplink, allocs, 50); got != want {
					t.Fatalf("seed %d step %d: apply(%+v) used %d PRBs, want %d", seed, step, allocs, got, want)
				}
			}

			if !slices.Equal(events, ref.events) {
				t.Fatalf("seed %d step %d: events\n got %v\nwant %v", seed, step, events, ref.events)
			}
			want := make([]lte.RNTI, 0, len(ref.ues))
			for r := range ref.ues {
				want = append(want, r)
			}
			slices.Sort(want)
			if got := e.UEs(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: UEs = %v, want %v", seed, step, got, want)
			}
			probes := []lte.RNTI{0, lte.FirstUERNTI - 1, 0xFFFF}
			for r := lte.FirstUERNTI; r < ref.next+2; r++ {
				probes = append(probes, r)
			}
			for _, r := range probes {
				got, ok := e.UEReport(r)
				u, live := ref.ues[r]
				if ok != live || (live && got != u.rep) {
					t.Fatalf("seed %d step %d: UEReport(%d) = %+v, %v; want %+v, %v", seed, step, r, got, ok, u, live)
				}
			}
			if err := checkScans(e); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestRNTIExhaustionWrapsAndSkipsLive drives the C-RNTI counter over the
// top of the 16-bit range: it wraps to FirstUERNTI — never into the
// reserved values below it — steps over the RNTIs live UEs still hold, and
// reports an error instead of overwriting one when none is free.
func TestRNTIExhaustionWrapsAndSkipsLive(t *testing.T) {
	e := newENB(t)
	add := func(imsi uint64) lte.RNTI {
		t.Helper()
		rnti, err := e.AddUE(UEParams{IMSI: imsi, Channel: radio.Fixed(9)})
		if err != nil {
			t.Fatal(err)
		}
		return rnti
	}
	parked := add(1) // holds FirstUERNTI for the whole test
	e.DLEnqueue(parked, 1234)
	e.nextRNTI = 0xFFFE
	if got := add(2); got != 0xFFFE {
		t.Fatalf("RNTI before the wrap = %#x, want 0xfffe", got)
	}
	if got := add(3); got != 0xFFFF {
		t.Fatalf("last RNTI of the range = %#x, want 0xffff", got)
	}
	// The wrap: FirstUERNTI is live, so a fresh attach takes the next one
	// and a handover admit the one after.
	if got := add(4); got != lte.FirstUERNTI+1 {
		t.Fatalf("RNTI after the wrap = %#x, want %#x", got, lte.FirstUERNTI+1)
	}
	if got, err := e.AdmitUE(HandoverState{Params: UEParams{IMSI: 5}}); err != nil || got != lte.FirstUERNTI+2 {
		t.Fatalf("admit after the wrap = %#x, %v; want %#x", got, err, lte.FirstUERNTI+2)
	}
	if want := []lte.RNTI{lte.FirstUERNTI, lte.FirstUERNTI + 1, lte.FirstUERNTI + 2, 0xFFFE, 0xFFFF}; !slices.Equal(e.UEs(), want) {
		t.Fatalf("UEs = %#x, want %#x (ascending, none below FirstUERNTI)", e.UEs(), want)
	}
	if r, ok := e.UEReport(parked); !ok || r.IMSI != 1 || r.DLQueue != 1234 {
		t.Fatalf("the parked UE was disturbed: %+v, %v", r, ok)
	}

	// Every C-RNTI taken: attach and admit fail, nothing is overwritten.
	for i := range e.slotOf {
		if e.slotOf[i] == 0 {
			e.slotOf[i] = 1 // held by slot 0, the parked UE
		}
	}
	before := e.UEs()
	if rnti, err := e.AddUE(UEParams{IMSI: 6}); err == nil {
		t.Fatalf("AddUE with no free C-RNTI returned %#x", rnti)
	}
	if rnti, err := e.AdmitUE(HandoverState{Params: UEParams{IMSI: 7}}); err == nil {
		t.Fatalf("AdmitUE with no free C-RNTI returned %#x", rnti)
	}
	if !slices.Equal(e.UEs(), before) {
		t.Fatalf("a failed attach left state behind: UEs %#x", e.UEs())
	}
}

// TestENBMatchesMapReferenceFIFOChurn replays the map model under FIFO
// churn: every step a UE attaches, or a released one is admitted, and
// beyond 16 live UEs the oldest leaves by detach or handover release. That
// runs the C-RNTI counter over the top of the range twice, so the RNTI
// table's window slides with the live UEs and across the wrap. The eNodeB
// must answer like the model throughout — probes at the window's edges and
// just past it included — and the table must stay sized by the live UEs.
func TestENBMatchesMapReferenceFIFOChurn(t *testing.T) {
	const live, queueCap = 16, 5000
	rnd := rand.New(rand.NewSource(1))
	e := New(Config{ID: 1, Seed: 1, DLQueueCap: queueCap})
	ref := &refENB{ues: map[lte.RNTI]*refUE{}, next: lte.FirstUERNTI, cap: queueCap}
	var events []refEvent
	e.SetHooks(Hooks{OnUEEvent: func(ev protocol.UEEventType, rnti lte.RNTI, _ lte.CellID) {
		events = append(events, refEvent{ev, rnti})
	}})
	var fifo []lte.RNTI
	var released []HandoverState
	nextIMSI := uint64(1)
	for step, wraps := 0, 0; wraps < 2; step++ {
		var want *refUE
		if len(released) > 0 && rnd.Intn(2) == 0 {
			st := released[0]
			released = released[1:]
			want = ref.add(st.Params, StateConnected)
			want.rep.DLQueue, want.rep.DLDropped = st.DLQueue, st.DLDropped
			want.rep.AttachTries = st.AttachTries
			ref.events = append(ref.events, refEvent{protocol.UEEventAttach, want.rep.RNTI})
			if got, err := e.AdmitUE(st); err != nil || got != want.rep.RNTI {
				t.Fatalf("step %d: AdmitUE = %d, %v; want %d", step, got, err, want.rep.RNTI)
			}
		} else {
			p := UEParams{IMSI: nextIMSI, Channel: radio.Fixed(9), Group: rnd.Intn(3)}
			nextIMSI++
			want = ref.add(p, StateAttaching)
			want.rep.SigQueue, want.rep.AttachTries = DefaultAttachSignalingBytes, 1
			ref.events = append(ref.events, refEvent{protocol.UEEventRandomAccess, want.rep.RNTI})
			if got, err := e.AddUE(p); err != nil || got != want.rep.RNTI {
				t.Fatalf("step %d: AddUE = %d, %v; want %d", step, got, err, want.rep.RNTI)
			}
		}
		if ref.next < lte.FirstUERNTI { // the model's counter wrapped through 0
			ref.next = lte.FirstUERNTI
			wraps++
		}
		fifo = append(fifo, want.rep.RNTI)
		r, n := fifo[rnd.Intn(len(fifo))], rnd.Intn(3000)
		if got, want := e.DLEnqueue(r, n), ref.dlEnqueue(r, n); got != want {
			t.Fatalf("step %d: DLEnqueue(%d, %d) = %d, want %d", step, r, n, got, want)
		}

		probes := []lte.RNTI{0, lte.FirstUERNTI - 1, ref.next, ref.next + 1, e.slotBase - 1, e.slotBase}
		if len(fifo) > live {
			old := fifo[0]
			fifo = fifo[1:]
			if rnd.Intn(2) == 0 {
				e.RemoveUE(old)
			} else {
				st, ok := e.ReleaseUE(old)
				if !ok {
					t.Fatalf("step %d: ReleaseUE(%d) found no UE", step, old)
				}
				released = append(released, st)
			}
			ref.remove(old)
			probes = append(probes, old, old-1)
		}

		if !slices.Equal(events, ref.events) {
			t.Fatalf("step %d: events\n got %v\nwant %v", step, events, ref.events)
		}
		events, ref.events = events[:0], ref.events[:0]
		if got := e.UEs(); !slices.Equal(got, slices.Sorted(maps.Keys(ref.ues))) {
			t.Fatalf("step %d: UEs = %v, want the model's %d", step, got, len(ref.ues))
		}
		for _, r := range append(probes, fifo...) {
			got, ok := e.UEReport(r)
			u, live := ref.ues[r]
			if ok != live || (live && got != u.rep) {
				t.Fatalf("step %d: UEReport(%d) = %+v, %v; want %+v, %v", step, r, got, ok, u, live)
			}
		}
		if len(e.slotOf) > 2*live || cap(e.slotOf) > 64 {
			t.Fatalf("step %d: RNTI table holds %d entries (cap %d) for %d live UEs",
				step, len(e.slotOf), cap(e.slotOf), len(ref.ues))
		}
	}
}

// TestMemGateRNTIChurn bounds the RNTI table by the live UEs: every attach
// takes a fresh C-RNTI, so 200,000 attach/detach cycles with at most 16
// UEs live hand out every C-RNTI three times over, and the table must not
// grow with them.
func TestMemGateRNTIChurn(t *testing.T) {
	const cycles, live, budgetCap = 200000, 16, 64
	e := newENB(t)
	var fifo []lte.RNTI
	maxCap := 0
	for i := 0; i < cycles; i++ {
		rnti, err := e.AddUE(UEParams{IMSI: uint64(i + 1), Channel: radio.Fixed(9)})
		if err != nil {
			t.Fatal(err)
		}
		if fifo = append(fifo, rnti); len(fifo) > live {
			e.RemoveUE(fifo[0])
			fifo = fifo[1:]
		}
		maxCap = max(maxCap, cap(e.slotOf))
	}
	t.Logf("RNTI table: %d entries, cap %d (at most %d over the run) for %d live UEs",
		len(e.slotOf), cap(e.slotOf), maxCap, len(e.order))
	if maxCap > budgetCap {
		t.Errorf("RNTI table reached cap %d, budget %d", maxCap, budgetCap)
	}
}
