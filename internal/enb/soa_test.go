package enb

import (
	"testing"
	"unsafe"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
)

// slotFor resolves a live UE's slot through the lookup helper.
func slotFor(t *testing.T, e *ENB, rnti lte.RNTI) int32 {
	t.Helper()
	s, ok := e.lookup(rnti)
	if !ok {
		t.Fatalf("RNTI %d has no slot", rnti)
	}
	return s
}

// dirtySlot attaches a UE, drives traffic through it until every hot field
// holds nonzero state, and returns its slot id.
func dirtySlot(t *testing.T, e *ENB) (lte.RNTI, int32) {
	t.Helper()
	rnti := addConnected(t, e, radio.Fixed(12))
	e.DLEnqueue(rnti, 50000)
	e.ULEnqueue(rnti, 50000)
	for i := 0; i < 20; i++ {
		e.Step()
	}
	s := slotFor(t, e, rnti)
	r, _ := e.UEReport(rnti)
	if r.CQI == 0 || r.AvgDLKbps == 0 || r.AvgULKbps == 0 || r.DLDelivered == 0 || r.LastSched == 0 {
		t.Fatalf("failed to dirty the slot: %+v", r)
	}
	e.DLEnqueue(rnti, 40000)
	e.ULEnqueue(rnti, 40000)
	return rnti, s
}

// TestSlotReuseNoLeak is the regression test for the slot free list:
// attach→detach→attach must hand the recycled slot to the new UE with its
// hot and cold records zeroed — no stale CQI, queue bytes, PF averages, HARQ
// state or cumulative counters from the previous occupant.
func TestSlotReuseNoLeak(t *testing.T) {
	e := newENB(t)
	old, s := dirtySlot(t, e)
	if q := e.hot[s].dlQueue; q == 0 {
		t.Fatal("expected pending DL bytes before detach")
	}
	slots := len(e.hot)

	e.RemoveUE(old)
	if len(e.free) != 1 || e.free[0] != s {
		t.Fatalf("detach must free slot %d, free list %v", s, e.free)
	}

	rnti, err := e.AddUE(UEParams{IMSI: 777, Cell: 0, Channel: radio.Fixed(7)})
	if err != nil {
		t.Fatal(err)
	}
	if got := slotFor(t, e, rnti); got != s {
		t.Fatalf("new UE got slot %d, want recycled slot %d", got, s)
	}
	if len(e.hot) != slots || len(e.cold) != slots {
		t.Fatalf("slots grew from %d to %d despite a free slot", slots, len(e.hot))
	}

	r, ok := e.UEReport(rnti)
	if !ok {
		t.Fatal("recycled UE not reported")
	}
	if r.State != StateAttaching || r.SigQueue != e.attachSigBytes || r.AttachTries != 1 {
		t.Fatalf("fresh attach state corrupted: %+v", r)
	}
	if r.CQI != 0 || r.DLQueue != 0 || r.ULQueue != 0 ||
		r.AvgDLKbps != 0 || r.AvgULKbps != 0 || r.LastSched != 0 ||
		r.DLDelivered != 0 || r.ULDelivered != 0 || r.DLDropped != 0 || r.HARQRetx != 0 {
		t.Fatalf("recycled slot leaked previous occupant's state: %+v", r)
	}
	if e.hot[s].retxDL != 0 || e.hot[s].retxUL != 0 || e.hot[s].ttiDL != 0 || e.hot[s].ttiUL != 0 {
		t.Fatal("recycled slot leaked HARQ/per-TTI state")
	}

	// The recycled slot must behave like a brand-new UE end to end.
	for i := 0; i < 200 && !e.Connected(rnti); i++ {
		e.Step()
	}
	if !e.Connected(rnti) {
		t.Fatal("UE on recycled slot failed to attach")
	}
	if got, _ := e.UEReport(rnti); got.IMSI != 777 {
		t.Fatalf("recycled UE reports IMSI %d, want 777", got.IMSI)
	}
}

// TestHandoverSlotReuse covers the ReleaseUE path: the slot freed by a
// handover release must come back clean for the next admission.
func TestHandoverSlotReuse(t *testing.T) {
	e := newENB(t)
	old, s := dirtySlot(t, e)
	st, ok := e.ReleaseUE(old)
	if !ok {
		t.Fatal("release failed")
	}
	if st.DLQueue == 0 {
		t.Fatal("expected forwarded DL bytes in the handover context")
	}
	rnti, err := e.AdmitUE(HandoverState{Params: UEParams{IMSI: 888, Cell: 0, Channel: radio.Fixed(9)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := slotFor(t, e, rnti); got != s {
		t.Fatalf("admission got slot %d, want recycled slot %d", got, s)
	}
	r, _ := e.UEReport(rnti)
	if r.State != StateConnected {
		t.Fatalf("admitted UE must be connected, got %v", r.State)
	}
	if r.DLQueue != 0 || r.ULQueue != 0 || r.AvgDLKbps != 0 || r.AvgULKbps != 0 ||
		r.DLDelivered != 0 || r.HARQRetx != 0 {
		t.Fatalf("admission inherited the released UE's state: %+v", r)
	}
}

// TestHookAddingUEMidStep covers the one way the hot records move under a
// running Step: an event hook that attaches a UE grows ENB.hot. The
// transmission that completed an attach and raised the event must still
// land in the attaching UE's record — queue, per-TTI count, and so the PF
// average — exactly as when the hook adds nothing.
func TestHookAddingUEMidStep(t *testing.T) {
	run := func(addOnAttach bool) UEReport {
		e := newENB(t)
		rnti, err := e.AddUE(UEParams{IMSI: 1, Channel: radio.Fixed(15)})
		if err != nil {
			t.Fatal(err)
		}
		e.DLEnqueue(rnti, 100000)
		e.SetHooks(Hooks{OnUEEvent: func(ev protocol.UEEventType, r lte.RNTI, _ lte.CellID) {
			if addOnAttach && ev == protocol.UEEventAttach && r == rnti {
				if _, err := e.AddUE(UEParams{IMSI: 2, Channel: radio.Fixed(15)}); err != nil {
					t.Error(err)
				}
			}
		}})
		for i := 0; i < 100 && !e.Connected(rnti); i++ {
			e.Step()
		}
		r, ok := e.UEReport(rnti)
		if !ok || r.State != StateConnected {
			t.Fatalf("UE did not attach: %+v", r)
		}
		return r
	}
	with, without := run(true), run(false)
	if with != without {
		t.Fatalf("a UE added by the attach hook changed the attaching UE's record:\n got %+v\nwant %+v", with, without)
	}
	if without.DLQueue == 100000 {
		t.Fatalf("the attach subframe carried no data, so the test shows nothing: %+v", without)
	}
}

// TestMemGateRecordSizes pins the records the sparse memory gate rests on,
// on 64-bit hosts: the hot record stays 72 bytes (the serving-cell copy
// sits in what was padding), and the ENB struct fits the 320-byte size
// class with its backlog counts.
func TestMemGateRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(hotState{}); got != 72 {
		t.Errorf("hotState is %d B, want 72", got)
	}
	if got := unsafe.Sizeof(ENB{}); got > 320 {
		t.Errorf("ENB is %d B, over the 320-B size class", got)
	}
}
