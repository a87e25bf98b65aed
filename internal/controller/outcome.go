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

// cmdTracker records command outcomes and wakes waiters.
type cmdTracker struct {
	mu       sync.Mutex
	outcomes map[uint64]CmdOutcome
	fifo     []uint64
	waiters  map[uint64][]chan CmdOutcome
}

// record stores one outcome and completes its waiters. Serial phase only.
func (t *cmdTracker) record(o CmdOutcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.outcomes == nil {
		t.outcomes = map[uint64]CmdOutcome{}
	}
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
// outcome and closes — immediately if already recorded. The channel is
// buffered: abandoning the wait leaks nothing and blocks nobody.
func (m *Master) WaitCommand(seq uint64) <-chan CmdOutcome {
	ch := make(chan CmdOutcome, 1)
	t := &m.cmdTrack
	t.mu.Lock()
	if o, ok := t.outcomes[seq]; ok {
		t.mu.Unlock()
		ch <- o
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

// recordOutcomes feeds this cycle's terminal command results into the
// registry: agent acks carrying a sequence number, in session order, and
// delivery failures. Serial phase of Tick, after the retry sweep finalized
// the failures.
func (m *Master) recordOutcomes(sinks []tickSink, fails []cmdFailure) {
	for i := range sinks {
		for _, a := range sinks[i].acks {
			if a.ack.Seq == 0 {
				continue
			}
			m.cmdTrack.record(CmdOutcome{
				Seq: a.ack.Seq, ENB: a.enb,
				OK: a.ack.OK, Detail: a.ack.Detail, Cycle: m.cycle,
			})
		}
	}
	for _, cf := range fails {
		m.cmdTrack.record(CmdOutcome{
			Seq: cf.seq, ENB: cf.enb, OK: false,
			Detail: "delivery failed: retry budget exhausted or session closed",
			Cycle:  m.cycle,
		})
	}
}
