package controller

import (
	"encoding/json"
	"fmt"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// HealthState grades an agent session's control-plane quality. Liveness
// (Connected) is binary — the transport is up or it is not — but gray
// failures sit in between: the agent answers echoes while its reports have
// stopped, or the link delivers with seconds of loss-induced delay. The
// health monitor folds those signals into a small ladder that policy code
// (handover target selection, share pushes) can gate on.
type HealthState uint8

const (
	// Healthy: reports fresh, echoes answered, no retransmission pressure.
	Healthy HealthState = iota
	// Degraded: the session works but shows stress — missed echo periods,
	// reports later than the degraded budget, command retransmissions in
	// flight, or a command round trip drifting past the degraded budget.
	Degraded
	// Suspect: the session is likely failing even if the transport looks
	// alive — reports stale past the suspect budget or the echo-miss streak
	// at the disconnect budget. Policy must stop routing new work here.
	Suspect
	// HealthDown: no live session (mirrors !Connected).
	HealthDown
)

// String names the state for logs and digests.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Suspect:
		return "suspect"
	case HealthDown:
		return "down"
	}
	return "unknown"
}

// MarshalJSON renders the state as its name — health grades cross the
// northbound API as strings, not ladder indices.
func (h HealthState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// UnmarshalJSON accepts the name form emitted by MarshalJSON.
func (h *HealthState) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, state := range []HealthState{Healthy, Degraded, Suspect, HealthDown} {
		if s == state.String() {
			*h = state
			return nil
		}
	}
	return fmt.Errorf("controller: unknown health state %q", s)
}

// cmdFailure is one reliable-delivery failure, queued for the command-
// outcome registry and the cycle's cmd_failed watch event.
type cmdFailure struct {
	enb     lte.ENBID
	seq     uint64
	payload protocol.Payload
}

// pendingCmd tracks one sequenced command awaiting its agent ack.
type pendingCmd struct {
	seq     uint64
	payload protocol.Payload
	sentAt  lte.Subframe // cycle of the last (re)transmission
	tries   int          // transmissions so far (1 = initial send)
}

// defaultCmdRetryBudget is the retransmission budget applied when reliable
// delivery is enabled without an explicit CmdRetryBudget.
const defaultCmdRetryBudget = 5

// cmdRetryBudget returns the effective retransmission budget.
func (m *Master) cmdRetryBudget() int {
	if m.opts.CmdRetryBudget > 0 {
		return m.opts.CmdRetryBudget
	}
	return defaultCmdRetryBudget
}

// sequencedKind reports whether a payload rides the reliable-delivery
// path. Only idempotently re-appliable commands qualify; time-critical
// pushes (DL/UL schedules for a target subframe) and request/reply traffic
// are excluded — retransmitting a schedule after its subframe passed is
// noise, not reliability.
func sequencedKind(p protocol.Payload) bool {
	switch p.(type) {
	case *protocol.HandoverCommand, *protocol.PolicyReconf, *protocol.VSFUpdate:
		return true
	}
	return false
}

// sendCmd is the northbound command path: with reliable delivery enabled
// (Options.CmdRetryTTI > 0) and a command-kind payload, the envelope is
// stamped with the next sequence number and the payload is retained for
// retransmission until the agent's ControlAck retires it. The assigned
// sequence number is returned directly to the caller — the correlation
// handle for cmd_failed events, Acks and the command-outcome registry (0
// when the payload was not sequenced). Callers reach it through
// Context.Send and the Context command helpers, which run in the
// application slot — sequence assignment is therefore serial and
// deterministic for any Workers setting. The caller must not mutate the
// payload after a sequenced send.
func (m *Master) sendCmd(enb lte.ENBID, p protocol.Payload) (uint64, error) {
	if m.opts.CmdRetryTTI <= 0 || !sequencedKind(p) {
		return 0, m.Send(enb, p)
	}
	m.mu.Lock()
	s := m.sessions[enb]
	if s == nil {
		m.mu.Unlock()
		return 0, errNoSession(enb)
	}
	m.nextCmdSeq++
	seq := m.nextCmdSeq
	m.mu.Unlock()

	s.qmu.Lock()
	s.pending = append(s.pending, &pendingCmd{
		seq: seq, payload: p, sentAt: m.cycle, tries: 1,
	})
	s.qmu.Unlock()

	msg := protocol.AcquireMessage(enb, m.cycle, p)
	msg.CmdSeq = seq
	err := s.send(msg)
	msg.Release()
	// A failed transmit is not a failed delivery: the retransmission sweep
	// owns the retry (and the eventual failure report).
	return seq, err
}

// retirePending removes an acked command from the session's pending list
// and feeds the ack round trip into the session's RTT estimate. Runs on
// the updater (one per session), so the only concurrent access is a
// transport-driver close — hence qmu.
func (m *Master) retirePending(s *session, seq uint64) {
	s.qmu.Lock()
	for i, p := range s.pending {
		if p.seq != seq {
			continue
		}
		rtt := m.cycle - p.sentAt
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		s.qmu.Unlock()
		s.observeRTT(rtt)
		return
	}
	s.qmu.Unlock()
}

// observeRTT folds one command or echo round trip (in cycles) into the
// session's EWMA (×8 fixed point, alpha 1/8). Updater-phase only.
func (s *session) observeRTT(rtt lte.Subframe) {
	if s.rttEwmaX8 == 0 {
		s.rttEwmaX8 = int64(rtt) * 8
		return
	}
	s.rttEwmaX8 += int64(rtt) - s.rttEwmaX8/8
}

// retrySweep runs the reliable-delivery retransmission pass: a pending
// command whose backoff window expired is retransmitted with the same
// sequence number (the agent dedups and re-acks), doubling the wait each
// try; one that spent its retransmission budget is dropped and reported as
// failed. Runs after the updater barrier, sessions in attach order and
// commands in sequence order, so retransmit traffic is deterministic.
func (m *Master) retrySweep(sessions []*session, fails []cmdFailure) []cmdFailure {
	enbs := m.snapshotBindings(sessions)
	budget := m.cmdRetryBudget()
	base := lte.Subframe(m.opts.CmdRetryTTI)
	for i, s := range sessions {
		if enbs[i] == 0 || s.isClosed() {
			continue
		}
		s.qmu.Lock()
		keep := s.pending[:0]
		for _, p := range s.pending {
			wait := base << min(p.tries-1, 3) // exp backoff, capped at 8×
			if m.cycle-p.sentAt < wait {
				keep = append(keep, p)
				continue
			}
			if p.tries-1 >= budget {
				fails = append(fails, cmdFailure{enb: enbs[i], seq: p.seq, payload: p.payload})
				continue
			}
			p.tries++
			p.sentAt = m.cycle
			keep = append(keep, p)
			msg := protocol.AcquireMessage(enbs[i], m.cycle, p.payload)
			msg.CmdSeq = p.seq
			s.send(msg) //nolint:errcheck // a failed retransmit waits for the next window
			msg.Release()
		}
		s.pending = keep
		s.qmu.Unlock()
	}
	return fails
}

// failPending drops every unacknowledged command of a closing session and
// queues the failures for dispatch (Master.mu NOT held).
func (m *Master) failPending(s *session, enb lte.ENBID) {
	s.qmu.Lock()
	pending := s.pending
	s.pending = nil
	s.qmu.Unlock()
	if len(pending) == 0 {
		return
	}
	m.mu.Lock()
	for _, p := range pending {
		m.pendingCmdFail = append(m.pendingCmdFail, cmdFailure{enb: enb, seq: p.seq, payload: p.payload})
	}
	m.mu.Unlock()
}

// healthTick evaluates every bound session against the health thresholds
// and returns the transitions to publish this cycle. Downgrades apply
// immediately; recovery (including partial recovery to a better but still
// unhealthy state) requires the improved conditions to hold for
// HealthRecoverTTI cycles — the hysteresis that keeps a flapping link from
// flapping the policy layer. Runs after the updater barrier and the
// heartbeat, so per-session fields are stable.
func (m *Master) healthTick(sessions []*session) []WatchEvent {
	var evs []WatchEvent
	enbs := m.snapshotBindings(sessions)
	for i, s := range sessions {
		if enbs[i] == 0 || s.isClosed() {
			continue
		}
		target := m.scoreSession(s)
		switch {
		case target > s.health:
			// Worse: act on it now.
			s.health = target
			s.healthOKSince = 0
			m.rib.setHealth(enbs[i], target)
			evs = append(evs, WatchEvent{Kind: WatchHealth, ENB: enbs[i], Health: target})
		case target < s.health:
			// Better: hold the improvement for the recovery window first.
			if s.healthOKSince == 0 {
				s.healthOKSince = m.cycle
			}
			if m.cycle-s.healthOKSince >= lte.Subframe(m.opts.HealthRecoverTTI) {
				s.health = target
				s.healthOKSince = 0
				m.rib.setHealth(enbs[i], target)
				evs = append(evs, WatchEvent{Kind: WatchHealth, ENB: enbs[i], Health: target})
			}
		default:
			s.healthOKSince = 0
		}
	}
	return evs
}

// scoreSession computes a session's instantaneous health from the signals
// the master already tracks: statistics-report staleness (the one signal a
// stalled-but-heartbeating agent cannot fake), the echo-miss streak, the
// command/echo RTT estimate and retransmission pressure. The staleness
// terms only apply when periodic reporting is configured.
func (m *Master) scoreSession(s *session) HealthState {
	stale := lte.Subframe(0)
	if m.opts.StatsPeriodTTI > 0 {
		stale = m.cycle - s.lastReport
	}
	rtt := lte.Subframe(s.rttEwmaX8 / 8)
	if m.opts.HealthSuspectTTI > 0 {
		if stale >= lte.Subframe(m.opts.HealthSuspectTTI) || rtt >= lte.Subframe(m.opts.HealthSuspectTTI) {
			return Suspect
		}
	}
	if m.opts.EchoMissBudget > 0 && s.echoMisses >= m.opts.EchoMissBudget {
		return Suspect
	}
	if m.opts.HealthDegradedTTI > 0 {
		if stale >= lte.Subframe(m.opts.HealthDegradedTTI) || rtt >= lte.Subframe(m.opts.HealthDegradedTTI) {
			return Degraded
		}
	}
	if s.echoMisses > 0 {
		return Degraded
	}
	s.qmu.Lock()
	retrying := false
	for _, p := range s.pending {
		if p.tries > 1 {
			retrying = true
			break
		}
	}
	s.qmu.Unlock()
	if retrying {
		return Degraded
	}
	return Healthy
}

// AgentHealth returns the monitor's current grade for an agent: HealthDown
// without a live session, Healthy before the monitor's first downgrade
// (and always, when the monitor is disabled).
func (m *Master) AgentHealth(enb lte.ENBID) HealthState {
	return m.rib.HealthOf(enb)
}
