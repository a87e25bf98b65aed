package rt

import (
	"testing"
	"time"
)

// fake-clock helper: a time base plus millisecond offsets.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }

func TestPacerOnTimeTicks(t *testing.T) {
	p := NewPacer(t0, time.Millisecond)
	// Waking slightly after each deadline: one due step, no misses.
	for i := 0; i < 5; i++ {
		due, missed := p.Due(at(float64(i) + 0.1))
		if due != 1 || missed != 0 {
			t.Fatalf("tick %d: due=%d missed=%d, want 1, 0", i, due, missed)
		}
	}
}

func TestPacerDeadlinesAreAbsolute(t *testing.T) {
	p := NewPacer(t0, time.Millisecond)
	if d := p.Deadline(); !d.Equal(at(0)) {
		t.Fatalf("first deadline %v, want %v", d, at(0))
	}
	// A late step must not shift later deadlines: after consuming the
	// backlog, the next deadline is still on the absolute grid.
	p.Due(at(3.7))
	if d := p.Deadline(); !d.Equal(at(4)) {
		t.Fatalf("deadline after late wake %v, want %v", d, at(4))
	}
}

// TestPacerCoalescedTicksAreMisses is the regression the engine exists
// for: a wakeup that a time.Ticker would coalesce into one delivery is
// accounted as every due deadline plus explicit misses.
func TestPacerCoalescedTicksAreMisses(t *testing.T) {
	p := NewPacer(t0, time.Millisecond)
	due, missed := p.Due(at(0.2)) // deadline 0, on time
	if due != 1 || missed != 0 {
		t.Fatalf("warmup: due=%d missed=%d", due, missed)
	}
	// Simulated 4.5 ms stall: deadlines 1..5 have passed. 1..4 are a full
	// period or more old (missed); 5 is only 0.5 ms late (on time).
	due, missed = p.Due(at(5.5))
	if due != 5 {
		t.Fatalf("coalesced due=%d, want 5 (nothing dropped)", due)
	}
	if missed != 4 {
		t.Fatalf("coalesced missed=%d, want 4", missed)
	}
	// The backlog is consumed once: the next wake owes only deadline 6.
	if due, missed = p.Due(at(6.1)); due != 1 || missed != 0 {
		t.Fatalf("after catch-up: due=%d missed=%d, want 1, 0", due, missed)
	}
}

func TestPacerSlightlyLateIsNotMissed(t *testing.T) {
	p := NewPacer(t0, time.Millisecond)
	p.Due(at(0))
	// 0.9 ms late is within the same TTI budget: due, but not missed.
	due, missed := p.Due(at(1.9))
	if due != 1 || missed != 0 {
		t.Fatalf("due=%d missed=%d, want 1, 0", due, missed)
	}
	// Exactly one period late is the miss boundary — and at that instant
	// the following deadline is exactly due too: deadline 2 (1 ms late)
	// counts as missed, deadline 3 (0 ms late) does not.
	due, missed = p.Due(at(3.0))
	if due != 2 || missed != 1 {
		t.Fatalf("boundary: due=%d missed=%d, want 2, 1", due, missed)
	}
}

func TestPacerEarlyWakeIsNoOp(t *testing.T) {
	p := NewPacer(t0, time.Millisecond)
	if due, missed := p.Due(at(0.1)); due != 1 || missed != 0 {
		t.Fatalf("first wake: due=%d missed=%d, want 1, 0", due, missed)
	}
	if due, missed := p.Due(at(0.5)); due != 0 || missed != 0 {
		t.Fatalf("early wake: due=%d missed=%d, want 0, 0", due, missed)
	}
	if due, missed := p.Due(t0.Add(-time.Second)); due != 0 || missed != 0 {
		t.Fatalf("pre-start wake: due=%d missed=%d, want 0, 0", due, missed)
	}
	// The no-op wakes consumed nothing: deadline 1 is still the next one.
	if d := p.Deadline(); !d.Equal(at(1)) {
		t.Fatalf("deadline after early wakes %v, want %v", d, at(1))
	}
}

func TestPacerDefaultPeriod(t *testing.T) {
	p := NewPacer(t0, 0)
	// With the 1 ms default, a wake at 2.5 ms owes deadlines 0, 1 and 2.
	if due, missed := p.Due(at(2.5)); due != 3 || missed != 2 {
		t.Fatalf("default period: due=%d missed=%d, want 3, 2", due, missed)
	}
}
