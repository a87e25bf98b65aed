package controller

import "testing"

// answered reads a WaitCommand channel without blocking: ready is false
// while the wait is still pending.
func answered(ch <-chan CmdOutcome) (o CmdOutcome, ok, ready bool) {
	select {
	case o, ok = <-ch:
		return o, ok, true
	default:
		return o, false, false
	}
}

// TestAbandonedWaitsLeaveNoWaiters pins that only a command in flight can
// be waited on: a wait on a sequence number never issued, or on one whose
// outcome was evicted, answers at once with nothing, and the waiters of an
// in-flight command go when its outcome lands — abandoned or not.
func TestAbandonedWaitsLeaveNoWaiters(t *testing.T) {
	m := NewMaster(DefaultOptions())
	for range 1000 {
		if o, ok, ready := answered(m.WaitCommand(999)); !ready || ok {
			t.Fatalf("wait on unissued command 999: answered %v with %+v", ready, o)
		}
	}
	if n := len(m.cmdTrack.waiters); n != 0 {
		t.Fatalf("%d waiters left by waits on an unissued command", n)
	}

	tr := &m.cmdTrack
	tr.issue(1)
	first := m.WaitCommand(1)
	for range 100 {
		m.WaitCommand(1) // abandoned
	}
	if _, _, ready := answered(first); ready {
		t.Fatal("wait on an in-flight command answered early")
	}
	tr.record(CmdOutcome{Seq: 1, OK: true})
	if o, ok, _ := answered(first); !ok || o.Seq != 1 || !o.OK {
		t.Fatalf("in-flight wait answered %+v, %v", o, ok)
	}

	// Evict command 1's outcome: a wait on it now answers at once.
	for seq := uint64(2); seq <= cmdOutcomeCap+1; seq++ {
		tr.issue(seq)
		tr.record(CmdOutcome{Seq: seq, OK: true})
	}
	if o, ok, ready := answered(m.WaitCommand(1)); !ready || ok {
		t.Fatalf("wait on evicted command 1: answered %v with %+v", ready, o)
	}
	if o, ok, _ := answered(m.WaitCommand(cmdOutcomeCap + 1)); !ok || !o.OK {
		t.Fatalf("recorded command answered %+v, %v", o, ok)
	}
	if n := len(tr.waiters); n != 0 {
		t.Fatalf("%d waiters left after every outcome landed", n)
	}
}
