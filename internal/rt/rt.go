// Package rt provides the deadline machinery of the wall-clock real-time
// engine: a drift-free pacer that schedules TTI deadlines as absolute times
// computed from the run start, and reports every deadline it hands out —
// a loop that falls behind (GC pause, scheduler delay, a long tick) sees
// the backlog as due steps plus an explicit miss count, never as silently
// coalesced ticks the way time.Ticker delivers them. The pacer keeps no
// totals: each loop folds what Due returns into its metrics.LoopStats.
//
// The pacer is deliberately clock-free: the caller passes wall times in,
// so the accounting is exact under a fake clock in tests and the real-time
// loops own their own timer/select structure.
package rt

import "time"

// Pacer schedules the absolute TTI deadlines of a wall-clock loop.
// Deadline i is start + i*period — the next deadline is never derived from
// when the previous step actually ran, so a late step does not push every
// later deadline back (the drift mode of ticker-based pacing).
//
// A Pacer is not safe for concurrent use; each loop owns one.
type Pacer struct {
	start  time.Time
	period time.Duration
	next   int64 // index of the next unconsumed deadline
}

// NewPacer starts a pacer at start with the given TTI period (0 or
// negative defaults to 1 ms). The first deadline is start itself.
func NewPacer(start time.Time, period time.Duration) *Pacer {
	if period <= 0 {
		period = time.Millisecond
	}
	return &Pacer{start: start, period: period}
}

// Deadline returns the absolute time of the next unconsumed deadline. The
// loop sleeps until it (or handles other work), then calls Due.
func (p *Pacer) Deadline() time.Time {
	return p.start.Add(time.Duration(p.next) * p.period)
}

// Due consumes every deadline at or before now and returns how many there
// were, plus how many of them were missed. A deadline is missed when its
// step begins a full period or more after it was due — i.e. the next
// deadline had already passed too. A wakeup coalesced over k deadlines
// therefore reports due=k with at least k-1 misses: the backlog is handed
// to the caller to step through, counted, never dropped.
//
// Due returns (0, 0) when no deadline has passed (a spurious or early
// wakeup); the loop just re-arms its timer.
func (p *Pacer) Due(now time.Time) (due, missed int) {
	elapsed := now.Sub(p.start)
	if elapsed < 0 {
		return 0, 0
	}
	last := int64(elapsed / p.period) // highest deadline index <= now
	if last < p.next {
		return 0, 0
	}
	due = int(last - p.next + 1)
	// Deadlines at or before now-period are a full period late.
	lateLast := int64(-1)
	if late := elapsed - p.period; late >= 0 {
		lateLast = int64(late / p.period)
	}
	if lateLast >= p.next {
		missed = int(lateLast - p.next + 1)
	}
	p.next = last + 1
	return due, missed
}
