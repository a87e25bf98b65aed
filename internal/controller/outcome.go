package controller

import (
	"sync"

	"flexran/internal/lte"
)

// The command-outcome registry: with reliable delivery enabled
// (Options.CmdRetryTTI), every sequenced command eventually produces
// either an agent ControlAck or a delivery failure. The registry records
// those terminal outcomes by sequence number so off-loop callers (the
// northbound actuation endpoints, tests and examples) can correlate a push
// with its result; in-process apps can also use cmd_failed watch events.
// Without reliable delivery no command carries a sequence number and
// nothing is recorded.

// CmdOutcome is the terminal result of one sequenced command.
type CmdOutcome struct {
	Seq uint64    `json:"seq"`
	ENB lte.ENBID `json:"enb"`
	// OK mirrors the agent's ControlAck verdict; false with an empty
	// Detail means the delivery itself failed (retry budget exhausted or
	// the session closed unacknowledged).
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
	// Cycle is the master cycle the outcome was recorded.
	Cycle lte.Subframe `json:"cycle"`
}

// cmdOutcomeCap bounds the registry; the oldest outcomes are evicted.
const cmdOutcomeCap = 4096

// cmdTracker records command outcomes and wakes waiters. inflight holds
// the sequence numbers issued and not yet recorded: only those can be
// waited on.
type cmdTracker struct {
	mu       sync.Mutex
	outcomes map[uint64]CmdOutcome
	fifo     []uint64
	inflight map[uint64]struct{}
	waiters  map[uint64][]chan CmdOutcome
}

// issue marks a freshly sequenced command in flight.
func (t *cmdTracker) issue(seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inflight == nil {
		t.inflight = map[uint64]struct{}{}
	}
	t.inflight[seq] = struct{}{}
}

// record stores one outcome and completes its waiters. The updater records
// acks as it applies them, in session attach order; the first outcome
// recorded for a sequence number stands.
func (t *cmdTracker) record(o CmdOutcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.outcomes == nil {
		t.outcomes = map[uint64]CmdOutcome{}
	}
	delete(t.inflight, o.Seq)
	if _, dup := t.outcomes[o.Seq]; !dup {
		t.outcomes[o.Seq] = o
		t.fifo = append(t.fifo, o.Seq)
		for len(t.fifo) > cmdOutcomeCap {
			delete(t.outcomes, t.fifo[0])
			t.fifo = t.fifo[1:]
		}
	}
	for _, ch := range t.waiters[o.Seq] {
		ch <- o
		close(ch)
	}
	delete(t.waiters, o.Seq)
}

// CommandOutcome returns the recorded outcome of a sequenced command.
// ok=false while the command is still in flight, once it has been evicted
// by the cmdOutcomeCap newer outcomes, or for seq 0 (a command that was
// not sequenced at all).
func (m *Master) CommandOutcome(seq uint64) (CmdOutcome, bool) {
	t := &m.cmdTrack
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.outcomes[seq]
	return o, ok
}

// WaitCommand returns a channel that receives the command's terminal
// outcome and closes — immediately if already recorded. For a command not
// in flight (never issued, or its outcome already evicted) it closes at
// once with nothing sent. The channel is buffered: abandoning the wait
// blocks nobody, and the waiter is dropped when the outcome arrives.
func (m *Master) WaitCommand(seq uint64) <-chan CmdOutcome {
	ch := make(chan CmdOutcome, 1)
	t := &m.cmdTrack
	t.mu.Lock()
	o, done := t.outcomes[seq]
	if _, waiting := t.inflight[seq]; done || !waiting {
		t.mu.Unlock()
		if done {
			ch <- o
		}
		close(ch)
		return ch
	}
	if t.waiters == nil {
		t.waiters = map[uint64][]chan CmdOutcome{}
	}
	t.waiters[seq] = append(t.waiters[seq], ch)
	t.mu.Unlock()
	return ch
}

// recordFailures records this cycle's delivery failures. Acks are recorded
// by the updater that applies them, so within a cycle every ack precedes
// every failure.
func (m *Master) recordFailures(fails []cmdFailure) {
	for _, cf := range fails {
		m.cmdTrack.record(CmdOutcome{
			Seq: cf.seq, ENB: cf.enb, OK: false,
			Detail: "delivery failed: retry budget exhausted or session closed",
			Cycle:  m.cycle,
		})
	}
}
