package controller

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/protocol"
)

// Options configures master behaviour applied to every agent session.
type Options struct {
	// ID names this master in HelloAcks.
	ID string
	// StatsPeriodTTI subscribes agents to periodic full reports
	// (protocol.StatsAll) at this period (0 disables the default
	// subscription). Other report modes are a StatsRequest sent through
	// Send.
	StatsPeriodTTI int
	// SyncPeriodTTI subscribes agents to subframe triggers (0 disables).
	SyncPeriodTTI int
	// TrustKey signs pushed VSFs.
	TrustKey string
	// Workers is the size of the RIB-updater worker pool the master no
	// longer has.
	//
	// Deprecated: ignored; kept for bench/ until ROADMAP item B.
	Workers int
	// EchoPeriodTTI is the liveness-probe period: a bound session that has
	// delivered nothing for EchoPeriodTTI cycles is sent an Echo, and each
	// further silent period counts as a miss. 0 disables heartbeats.
	EchoPeriodTTI int
	// EchoMissBudget is how many consecutive unanswered Echo periods a
	// session survives; one more closes it (DisconnectAgent semantics:
	// the RIB marks the agent down and a down event is published).
	EchoMissBudget int
	// NoResync suppresses the ResyncRequest the master normally sends
	// after each HelloAck, leaving RIB repopulation to periodic reports
	// (the pre-resync behaviour; kept for ablation experiments).
	NoResync bool
	// RTTProbePeriodTTI is the command-round-trip probe period: every
	// period, a wall-clock-stamped Echo goes to each bound session and the
	// mirrored timestamp on the EchoReply feeds the RTT histogram. Probes
	// fire only when a LoopStats is attached (SetLoopStats), so simulated
	// runs stay byte-identical. 0 disables probing.
	RTTProbePeriodTTI int
	// HealthPeriodTTI is the health monitor's evaluation period: every
	// period each bound session is re-scored (see HealthState) and
	// transitions are published as health events on the watch stream. 0
	// disables the monitor; every agent then reads as Healthy while
	// connected.
	HealthPeriodTTI int
	// HealthSuspectTTI marks a session Suspect when its report staleness
	// or command-RTT estimate reaches this many cycles — the gray-failure
	// line at which policy stops routing new work to the agent. 0 disables
	// the Suspect thresholds (echo-miss exhaustion still applies).
	HealthSuspectTTI int
	// HealthDegradedTTI is the softer line: staleness or RTT beyond it
	// (but below HealthSuspectTTI) marks the session Degraded. 0 disables.
	HealthDegradedTTI int
	// HealthRecoverTTI is the recovery hold: an unhealthy session must
	// score better for this many consecutive cycles before the monitor
	// upgrades it (downgrades always apply immediately).
	HealthRecoverTTI int
	// CmdRetryTTI enables reliable command delivery: commands issued
	// through the northbound Context carry sequence numbers, are
	// acknowledged by the agent, and are retransmitted after CmdRetryTTI
	// cycles without an ack (doubling each retry, capped at 8×). 0
	// disables sequencing entirely — the wire format is then byte-for-byte
	// the pre-sequencing one.
	CmdRetryTTI int
	// CmdRetryBudget caps retransmissions per command before the delivery
	// is reported failed (a cmd_failed event on the watch stream). 0 means
	// the default budget of 5.
	CmdRetryBudget int
}

// DefaultOptions mirror the paper's demanding evaluation setup: per-TTI
// full statistics and per-TTI master-agent synchronization.
func DefaultOptions() Options {
	return Options{
		ID:                "flexran-master",
		StatsPeriodTTI:    1,
		SyncPeriodTTI:     1,
		EchoPeriodTTI:     20,
		EchoMissBudget:    3,
		RTTProbePeriodTTI: 64,
	}
}

// App is a RAN control/management application registered with the master.
// Applications additionally implement TickerApp (the periodic pattern)
// and/or WatchApp (the event-based pattern, see watch.go) — the two
// execution patterns of §4.4.
type App interface {
	Name() string
}

// TickerApp runs once per master TTI cycle, in priority order.
type TickerApp interface {
	App
	OnTick(ctx *Context, cycle lte.Subframe)
}

// session is the master-side state of one agent transport. Inbound
// messages are absorbed into the per-session queue (one cheap lock per
// batch, never contended across eNodeBs) and drained by the RIB Updater
// on the next Tick, preserving per-session ordering.
type session struct {
	send func(*protocol.Message) error

	qmu    sync.Mutex // guards queue, batch and closed
	queue  []*protocol.Message
	batch  []*protocol.Message // the batch the last drain took
	closed bool

	// fenced marks a session displaced by a newer-epoch Hello for the same
	// eNodeB: every message it still delivers is dropped unapplied, so a
	// stale incarnation can never write over its successor's state.
	fenced bool

	// enb and epoch are guarded by Master.mu; the remaining fields are
	// only touched from the task-manager cycle (the updater, then the
	// session step).
	enb   lte.ENBID
	epoch uint64
	// gone marks a closed session the session step found drained, to be
	// dropped from the ingest list.
	gone bool
	// lastReport is the cycle of the last StatsReply (the health
	// monitor's staleness signal); lastWelcome backs off subscription
	// maintenance so a quiet agent is re-welcomed at most once per
	// window without clobbering the staleness clock; lastInbound the
	// cycle of the last applied message of any kind (liveness);
	// lastEcho/echoMisses drive the heartbeat.
	lastReport  lte.Subframe
	lastWelcome lte.Subframe
	lastInbound lte.Subframe
	lastEcho    lte.Subframe
	echoMisses  int

	// health is the monitor's current grade with its recovery-hold start
	// (grade, session step); rttEwmaX8 estimates the command round
	// trip in cycles (×8 fixed point, fed by acks and echo replies on the
	// updater). pending holds unacknowledged sequenced commands and is the
	// one field a transport-driver close may touch concurrently — it is
	// guarded by qmu.
	health        HealthState
	healthOKSince lte.Subframe
	rttEwmaX8     int64
	pending       []*pendingCmd
}

// enqueue appends a batch to the session's ingest queue. Batches
// arriving after the session closed are dropped: a closed session may
// already be pruned from the master's drain list, and appending to a
// queue nothing drains would leak without bound. Ownership still
// transferred, so dropped messages are released like applied ones.
func (s *session) enqueue(msgs []*protocol.Message) {
	if len(msgs) == 0 {
		return
	}
	s.qmu.Lock()
	closed := s.closed
	if !closed {
		s.queue = append(s.queue, msgs...)
	}
	s.qmu.Unlock()
	if closed {
		for _, m := range msgs {
			m.Release()
		}
	}
}

// drain takes the queued batch into s.batch for this cycle's updater. The
// session keeps two backing arrays and swaps them, so a steady-state
// enqueue never buys a new one: the batch is dead after the Tick that took
// it, and the next drain turns it into the ingest queue again (applyBatch
// has nilled its entries by then).
func (s *session) drain() {
	s.qmu.Lock()
	s.queue, s.batch = s.batch[:0], s.queue
	s.qmu.Unlock()
}

// isClosed reports whether the session has been closed.
func (s *session) isClosed() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.closed
}

// Master is the FlexRAN master controller.
type Master struct {
	opts Options
	rib  *RIB

	mu       sync.Mutex
	sessions map[lte.ENBID]*session // send routing, by bound agent id
	// epochs records the highest Hello epoch ever accepted per eNodeB. It
	// survives session closes, making the epoch fence a total order: a
	// ghost Hello from any previous incarnation — even one whose session
	// is long gone — can never rebind the agent.
	epochs  map[lte.ENBID]uint64
	ingest  []*session // every attached session, in attach order
	apps    []*appEntry
	nextApp int
	// pendingDown queues the agents whose session closed outside the
	// updater (transport death, heartbeat-miss disconnect), for the next
	// publish phase.
	pendingDown []lte.ENBID
	// pendingOps queues operations for the tick goroutine (Master.Do):
	// northbound actuations and runtime retunes run at the start of the
	// next application slot, serialized with command sequencing.
	pendingOps []masterOp
	// nextCmdSeq numbers sequenced commands, monotonic across every
	// session for the master's lifetime, so a sequence number can never be
	// reused against a reconnected agent's fresh dedup window.
	// pendingCmdFail queues delivery failures raised outside the retry
	// sweep (session closes).
	nextCmdSeq     uint64
	pendingCmdFail []cmdFailure
	// pendingSliceWatch queues the slice-kind watch events a slice broker
	// emitted during one application slot, for publication at the next
	// cycle (see EmitSliceEvent).
	pendingSliceWatch []WatchEvent

	// watch fans the RIB delta stream out to subscribers; watchEvs is the
	// cycle's event list, which Tick opens, the updater appends to while
	// the hub has consumers and emitWatch completes and publishes (tick
	// goroutine only, reused across cycles); watchSeq is the stream's
	// serial sequence counter; cmdTrack is the command-outcome registry
	// behind the northbound actuation endpoints. See watch.go and
	// outcome.go.
	watch    watchHub
	watchEvs []WatchEvent
	watchSeq uint64
	cmdTrack cmdTracker

	cycle lte.Subframe

	// loopStats is the deadline/latency sink: Tick feeds the RIB-updater
	// ("core components") and application legs — the Fig. 8 split — and
	// the EchoReply TS path feeds the command-round-trip leg. Atomic
	// because SetLoopStats may run on another goroutine than Tick; nil
	// (the default) disables every observation, clock read and RTT probe.
	loopStats atomic.Pointer[metrics.LoopStats]

	// Per-tick scratch, reused across cycles so the steady-state Tick
	// allocates nothing: at controller scale (thousands of attached agents,
	// most idle) rebuilding these arrays every TTI dominated Tick's
	// allocation profile. Entries are overwritten each cycle before use.
	enbScratch  []lte.ENBID // binding snapshot
	sessScratch []*session
	appScratch  []*appEntry
	ctx         Context // the application slot's, rewritten every cycle
	// docBuf is where Context writes the policy documents it sends (tick
	// goroutine only); syncDoc is the welcome's sync_period document,
	// written once.
	docBuf  []byte
	syncDoc string
}

// NewMaster builds a master controller.
func NewMaster(opts Options) *Master {
	if opts.ID == "" {
		opts.ID = "flexran-master"
	}
	if opts.TrustKey == "" {
		opts.TrustKey = protocol.DefaultTrustKey
	}
	return &Master{
		opts:     opts,
		rib:      NewRIB(),
		sessions: map[lte.ENBID]*session{},
		epochs:   map[lte.ENBID]uint64{},
		syncDoc:  "agent:\n  sync_period: " + strconv.Itoa(opts.SyncPeriodTTI) + "\n",
	}
}

// maintenanceInterval is how often (in cycles) the master checks for
// agents whose reporting has gone quiet, and the staleness threshold that
// triggers a subscription re-issue.
const (
	maintenanceEvery = 256
	staleAfter       = 512
)

// RIB exposes the information base (applications read it; only the
// master's updater writes).
func (m *Master) RIB() *RIB { return m.rib }

// SetLoopStats attaches the deadline/latency sink: each Tick observes the
// RIB Updater slot into ls.Ingest and the application slot into ls.Apps,
// and with Options.RTTProbePeriodTTI > 0 the master sends wall-clock-
// stamped Echo probes whose mirrored timestamps feed ls.RTT. Passing nil
// detaches.
func (m *Master) SetLoopStats(ls *metrics.LoopStats) { m.loopStats.Store(ls) }

// AgentSession is the master-side handle of one attached agent transport.
type AgentSession struct {
	m *Master
	s *session
}

// Deliver queues a batch of agent-to-master messages for the next Tick.
// One lock round-trip covers the whole batch, and sessions queue
// independently of each other. Ownership of the messages passes to
// the master: pooled messages (TCP decodes, simulated-link clones) are
// released back to the protocol free lists once applied, so callers must
// not touch them after Deliver. The batch slice itself is not retained.
func (as *AgentSession) Deliver(msgs ...*protocol.Message) {
	as.s.enqueue(msgs)
}

// Close marks the session closed: its remaining queue is still applied on
// the next Tick (matching delivery-then-disconnect semantics), after
// which the master drops the session.
func (as *AgentSession) Close() {
	as.m.closeSession(as.s)
}

// HandleAgentSession attaches one agent transport. send transmits
// master-to-agent messages and consumes each one: the master wraps payloads
// it may still hold (a command kept for retransmission) in pooled envelopes
// (protocol.AcquireMessage) and never touches one again once send returns.
// send copies or encodes the payload before it returns and releases the
// envelope, as transport.Conn and SimEndpoint do. The returned handle is
// how the transport driver delivers agent-to-master messages (they are
// queued per session and applied by the RIB Updater during the next Tick).
func (m *Master) HandleAgentSession(send func(*protocol.Message) error) *AgentSession {
	s := &session{send: send}
	m.mu.Lock()
	m.ingest = append(m.ingest, s)
	m.mu.Unlock()
	return &AgentSession{m: m, s: s}
}

func (m *Master) closeSession(s *session) {
	s.qmu.Lock()
	s.closed = true
	s.qmu.Unlock()
	m.mu.Lock()
	enb := s.enb
	m.mu.Unlock()
	// Commands the dead session never acked are failures now: the next
	// incarnation starts a fresh dedup window, so retransmitting them
	// there could double-apply. The issuing app reissues if still wanted.
	m.failPending(s, enb)
	m.mu.Lock()
	// Only the session that still owns the ENB binding may mark the
	// agent disconnected: a reconnected agent's newer session must not
	// be flagged down by the stale connection's belated close. (The epoch
	// fence makes the ownership handoff a total order — see handleHello.)
	owner := enb != 0 && m.sessions[enb] == s
	if owner {
		delete(m.sessions, enb)
		m.pendingDown = append(m.pendingDown, enb)
	}
	m.mu.Unlock()
	if owner {
		m.rib.applyDisconnect(enb)
	}
}

// DisconnectAgent marks an agent session closed by eNodeB id.
func (m *Master) DisconnectAgent(enb lte.ENBID) {
	m.mu.Lock()
	s := m.sessions[enb]
	m.mu.Unlock()
	if s != nil {
		m.closeSession(s)
		return
	}
	if m.rib.Connected(enb) {
		m.rib.applyDisconnect(enb)
		m.mu.Lock()
		m.pendingDown = append(m.pendingDown, enb)
		m.mu.Unlock()
	}
}

// ErrNoSession is the sentinel inside every command failure against an
// unbound agent: the push was lost, not deferred — there is no session to
// retry it on, and reliable delivery never saw it. Callers that must tell
// an unbound agent from other refusals test with errors.Is; the share
// actuator of internal/apps/broker counts every refusal as lost.
var ErrNoSession = errors.New("no session for agent")

// errNoSession is the command failure for an unbound agent.
func errNoSession(enb lte.ENBID) error {
	return fmt.Errorf("controller: %w %d", ErrNoSession, enb)
}

// Send transmits a payload to an agent (northbound command path) in a
// pooled envelope, which the session's send consumes (see
// HandleAgentSession). The caller keeps ownership of the payload.
func (m *Master) Send(enb lte.ENBID, p protocol.Payload) error {
	m.mu.Lock()
	s := m.sessions[enb]
	m.mu.Unlock()
	if s == nil {
		return errNoSession(enb)
	}
	return s.send(protocol.AcquireMessage(enb, m.cycle, p))
}

// Tick runs one task-manager cycle: the RIB Updater slot (drain the
// per-session ingest queues into the RIB — at most one updater per
// agent), the session step (one pass over the sessions for liveness,
// retransmission and health, see stepSession), then the application slot
// (per app in priority order: the cycle's watch events, then OnTick). The
// updater applies the sessions' batches in attach order. In the
// deployment mode each cycle is pinned to one TTI; in simulation the
// caller invokes Tick once per simulated subframe.
func (m *Master) Tick() {
	m.mu.Lock()
	sessions := append(m.sessScratch[:0], m.ingest...)
	m.sessScratch = sessions
	apps := append(m.appScratch[:0], m.apps...)
	m.appScratch = apps
	// Sessions closed since the last cycle (transport closes) publish
	// before anything this cycle's updater produces: their down events
	// open the cycle's event list.
	evs := m.watchEvs[:0]
	for _, enb := range m.pendingDown {
		evs = append(evs, WatchEvent{Kind: WatchDown, ENB: enb})
	}
	m.watchEvs = evs
	m.pendingDown = nil
	// Slice events emitted during the previous application slot publish
	// this cycle.
	sliceWatch := m.pendingSliceWatch
	m.pendingSliceWatch = nil
	m.mu.Unlock()

	// --- RIB Updater slot ---
	ls := m.loopStats.Load()
	var t0 time.Time
	if ls != nil {
		t0 = time.Now()
	}
	for _, s := range sessions {
		s.drain()
	}
	for _, s := range sessions {
		m.applyBatch(s)
	}

	// --- Session step ---
	st := sessionStep{
		probe: ls != nil && m.opts.RTTProbePeriodTTI > 0 &&
			m.cycle%lte.Subframe(m.opts.RTTProbePeriodTTI) == 0,
		maintain: m.opts.StatsPeriodTTI > 0 && m.cycle%maintenanceEvery == maintenanceEvery-1,
		grade:    m.opts.HealthPeriodTTI > 0 && m.cycle%lte.Subframe(m.opts.HealthPeriodTTI) == 0,
	}
	enbs := m.snapshotBindings(sessions)
	for i, s := range sessions {
		m.stepSession(&st, s, enbs[i])
	}
	// Heartbeat-driven disconnects queued just now publish this cycle, as
	// do delivery failures from those closes, ahead of the retransmission
	// budgets spent this cycle. Queued northbound operations submitted by
	// now run this cycle too.
	m.mu.Lock()
	if st.gone {
		m.dropGone()
	}
	postDown := m.pendingDown
	m.pendingDown = nil
	cmdFails := append(m.pendingCmdFail, st.fails...)
	m.pendingCmdFail = nil
	ops := m.pendingOps
	m.pendingOps = nil
	m.mu.Unlock()
	m.recordFailures(cmdFails)
	var watchEvs []WatchEvent
	if m.watch.active() {
		watchEvs = m.emitWatch(postDown, st.health, cmdFails, sliceWatch)
	}

	// --- Application slot ---
	var t1 time.Time
	if ls != nil {
		t1 = time.Now()
		ls.Ingest.Observe(t1.Sub(t0))
	}
	m.ctx = Context{master: m, Now: m.cycle}
	if len(ops) > 0 {
		m.runOps(&m.ctx, ops)
	}
	for _, e := range apps {
		m.dispatchTo(&m.ctx, e, watchEvs)
	}
	if ls != nil {
		ls.Apps.Observe(time.Since(t1))
	}

	m.mu.Lock()
	m.cycle++
	m.mu.Unlock()
}

// snapshotBindings reads every session's eNodeB binding in one lock
// round-trip, into reused scratch.
func (m *Master) snapshotBindings(sessions []*session) []lte.ENBID {
	if cap(m.enbScratch) < len(sessions) {
		m.enbScratch = make([]lte.ENBID, len(sessions))
	}
	enbs := m.enbScratch[:len(sessions)]
	m.mu.Lock()
	for i, s := range sessions {
		enbs[i] = s.enb
	}
	m.mu.Unlock()
	return enbs
}

// applyBatch runs the RIB Updater for one session's drained batch.
// Applied messages are released back to the protocol free lists: transports
// deliver owned messages (protocol.Message.Owned) and the updater is the end
// of the message's life (everything the RIB or the watch recording keeps is
// moved or copied out — kinds retained by pointer, like MeasReport, are
// exempt from payload pooling by construction). Release is a no-op for
// messages that were built directly rather than pooled, so in-process
// drivers and tests that Deliver hand-made messages are unaffected.
func (m *Master) applyBatch(s *session) {
	for i, msg := range s.batch {
		m.applyInbound(s, msg)
		msg.Release()
		s.batch[i] = nil // the batch's array is recycled by the next drain
	}
}

// applyInbound is the RIB Updater: the single component allowed to mutate
// the RIB (paper Fig. 5).
func (m *Master) applyInbound(s *session, msg *protocol.Message) {
	if s.fenced {
		return // displaced incarnation: drop everything unapplied
	}
	s.lastInbound = m.cycle
	s.echoMisses = 0
	switch p := msg.Payload.(type) {
	case *protocol.Hello:
		m.handleHello(s, msg.ENB, p)
	case *protocol.StateSnapshot:
		// Only the owning session's snapshot for the current epoch may
		// rebuild the shard: an answer overtaken by a further reconnect
		// (or delivered by a not-yet-fenced ghost) is dropped.
		m.mu.Lock()
		ok := s.enb == msg.ENB && s.epoch == p.Epoch && m.sessions[msg.ENB] == s
		m.mu.Unlock()
		if !ok {
			return
		}
		m.rib.applyResync(msg.ENB, p)
		m.verifySubscriptions(msg.ENB, p.Subs)
		s.lastReport = m.cycle
		if m.watch.active() {
			m.watchEvs = append(m.watchEvs, WatchEvent{Kind: WatchUp, ENB: msg.ENB, SF: p.SF})
		}
		// As with Hello: a close racing the apply may have run its
		// applyDisconnect before the resync marked the agent live again;
		// retract so the RIB never reports a ghost connected agent.
		if s.isClosed() {
			m.rib.applyDisconnect(msg.ENB)
		}
	case *protocol.ENBConfigReply:
		m.rib.applyHello(msg.ENB, p.Config)
	case *protocol.SubframeTrigger:
		m.rib.applySF(msg.ENB, p.SF)
	case *protocol.StatsReply:
		// The watch event reads the report first: takeStats leaves p with
		// the table it replaced.
		if m.watch.active() {
			var kbps float64
			for _, r := range p.UEs.DLRateKbps {
				kbps += float64(r)
			}
			m.watchEvs = append(m.watchEvs, WatchEvent{
				Kind: WatchStats, ENB: msg.ENB, SF: p.SF,
				UEs: p.UEs.Len(), DLKbps: kbps,
			})
		}
		if msg.Owned() {
			m.rib.takeStats(msg.ENB, p)
		} else {
			m.rib.applyStats(msg.ENB, p)
		}
		s.lastReport = m.cycle
	case *protocol.UEEvent:
		m.rib.applyUEEvent(msg.ENB, p)
		if m.watch.active() {
			m.watchEvs = append(m.watchEvs, WatchEvent{
				Kind: WatchUE, ENB: msg.ENB, SF: msg.SF,
				Cell: p.Cell, RNTI: p.RNTI, UEType: p.Type,
			})
		}
	case *protocol.EchoReply:
		m.rib.applySF(msg.ENB, p.SenderSF)
		// SenderSF mirrors the cycle our Echo carried, so the difference is
		// the round trip in cycles — the health monitor's RTT signal.
		if p.SenderSF <= m.cycle {
			s.observeRTT(m.cycle - p.SenderSF)
		}
		// The EchoTS path: the agent mirrored our wall-clock stamp, so the
		// difference is the full command round trip (send→agent→apply).
		if p.TS != 0 {
			if ls := m.loopStats.Load(); ls != nil {
				ls.RTT.Observe(time.Duration(time.Now().UnixNano() - p.TS))
			}
		}
	case *protocol.MeasReport:
		m.rib.applyMeasReport(msg.ENB, msg.SF, p)
		if m.watch.active() {
			m.watchEvs = append(m.watchEvs, WatchEvent{
				Kind: WatchMeas, ENB: msg.ENB, SF: msg.SF, Cell: p.Cell, RNTI: p.RNTI,
				Payload: p,
			})
		}
	case *protocol.HandoverComplete:
		m.rib.applyHandoverComplete(msg.ENB, p)
		if m.watch.active() {
			m.watchEvs = append(m.watchEvs, WatchEvent{
				Kind: WatchHandover, ENB: msg.ENB, SF: msg.SF, Cell: p.Cell, RNTI: p.RNTI,
				Payload: p,
			})
		}
	case *protocol.ControlAck:
		// The ack is the command's terminal outcome: retire the retry and
		// record it here, where it is applied, if this session sent it.
		if p.Seq != 0 && m.retirePending(s, p.Seq) {
			m.cmdTrack.record(CmdOutcome{
				Seq: p.Seq, ENB: s.enb, OK: p.OK, Detail: p.Detail, Cycle: m.cycle,
			})
		}
	}
}

// handleHello runs the session-establishment half of the RIB Updater:
// epoch fencing, (re)binding the eNodeB to this session, and the welcome +
// resync sequence. The epoch fence is a total order over incarnations —
// m.epochs keeps the highest epoch ever accepted per eNodeB even after its
// session closed, so a ghost Hello from any previous incarnation can
// neither rebind the agent nor wipe the shard. Two sessions of one eNodeB
// overlapping within a tick (a reconnect racing the dying transport) are
// resolved by the fence plus applyHello's wholesale shard replacement: once
// the newer Hello is applied, every late write of the old incarnation is
// dropped, and whatever it wrote before is gone with the replaced shard.
func (m *Master) handleHello(s *session, enb lte.ENBID, p *protocol.Hello) {
	m.mu.Lock()
	if s.isClosed() || (s.enb != 0 && s.enb != enb) {
		m.mu.Unlock()
		return
	}
	if p.Epoch < m.epochs[enb] {
		// Stale incarnation: the whole session is a ghost. Fence it so
		// none of its remaining traffic applies.
		s.fenced = true
		m.mu.Unlock()
		return
	}
	prev := m.sessions[enb]
	dup := prev == s && s.epoch == p.Epoch
	var takeover bool
	if !dup {
		if prev != nil && prev != s {
			// A newer incarnation displaces the current session: fence
			// it and report the old agent down before the new one
			// resyncs (apps drop their per-agent in-flight state).
			prev.fenced = true
			takeover = true
		}
		s.enb = enb
		s.epoch = p.Epoch
		s.lastInbound = m.cycle
		m.sessions[enb] = s
		m.epochs[enb] = p.Epoch
	}
	m.mu.Unlock()
	if takeover && m.watch.active() {
		m.watchEvs = append(m.watchEvs, WatchEvent{Kind: WatchDown, ENB: enb})
	}
	if !dup {
		// A duplicate Hello (lost HelloAck, retransmission) must not wipe
		// the shard the first one built; it only re-triggers the welcome.
		m.rib.applyHello(enb, p.Config)
		if m.watch.active() {
			m.watchEvs = append(m.watchEvs, WatchEvent{Kind: WatchHello, ENB: enb})
		}
	}
	m.welcome(enb)
	// Close may have raced the shard publish above (it runs its
	// applyDisconnect against a shard that does not exist yet);
	// retract the liveness if the session closed meanwhile, so the
	// RIB never reports a ghost connected agent.
	if s.isClosed() {
		m.rib.applyDisconnect(enb)
	}
}

// welcome completes the handshake: HelloAck plus the default statistics
// and synchronization subscriptions, then the resync pull that rebuilds
// the RIB shard in one cycle.
func (m *Master) welcome(enb lte.ENBID) {
	m.mu.Lock()
	epoch := m.epochs[enb]
	m.mu.Unlock()
	m.Send(enb, &protocol.HelloAck{
		Version:  protocol.ProtocolVersion,
		MasterID: m.opts.ID,
		Epoch:    epoch,
	})
	if m.opts.StatsPeriodTTI > 0 {
		sub := m.defaultSub()
		m.Send(enb, &sub)
	}
	if m.opts.SyncPeriodTTI > 0 {
		m.Send(enb, &protocol.PolicyReconf{Doc: m.syncDoc})
	}
	if !m.opts.NoResync {
		m.Send(enb, &protocol.ResyncRequest{Epoch: epoch})
	}
}

// verifySubscriptions audits a resync snapshot's subscription list: the
// snapshot is taken after the welcome's re-subscription, so the default
// subscription must appear in it. If it does not — the StatsRequest was
// lost while the ResyncRequest survived — it is re-issued immediately
// instead of waiting for the 256-cycle staleness maintenance.
func (m *Master) verifySubscriptions(enb lte.ENBID, subs []protocol.StatsRequest) {
	if m.opts.StatsPeriodTTI <= 0 {
		return
	}
	want := m.defaultSub()
	for _, s := range subs {
		if s == want {
			return
		}
	}
	m.Send(enb, &want) //nolint:errcheck // a lost repair is retried by maintenance
}

// defaultSub is the default statistics subscription: periodic full
// reports every StatsPeriodTTI cycles.
func (m *Master) defaultSub() protocol.StatsRequest {
	return protocol.StatsRequest{
		ID:        1,
		Mode:      protocol.StatsPeriodic,
		PeriodTTI: uint32(m.opts.StatsPeriodTTI),
		Flags:     protocol.StatsAll,
	}
}

// sessionStep carries one cycle's session step: which periodic duties are
// due this cycle, and what the pass over the sessions collected, in attach
// order.
type sessionStep struct {
	probe, maintain, grade bool

	fails  []cmdFailure // retransmission budgets spent
	health []WatchEvent // grade transitions
	gone   bool         // some session is closed and drained
}

// stepSession is the one pass over a session after the updater has
// applied every batch, so every per-session field is stable. In order, it
// reaps a displaced session, runs the heartbeat, the RTT probe,
// subscription maintenance, command retransmission and health grading on
// a bound live one, and marks a closed one gone once nothing is left to
// apply: a batch delivered between the drain and the close must still be
// applied (next tick) before the session goes away. Every duty reads and
// writes only its own session and its own eNodeB's RIB shard, so no
// session's step depends on another's; Tick steps them in attach order,
// which fixes the order of the traffic, the closes and the events they
// produce.
func (m *Master) stepSession(st *sessionStep, s *session, enb lte.ENBID) {
	if s.fenced && !s.isClosed() {
		// Reaped regardless of heartbeat configuration: the agent provably
		// lives on a newer session, so the half-open transport would
		// otherwise linger in the ingest list forever.
		m.closeSession(s) // non-owner: no down event, no RIB change
	}
	// A session whose handshake is still in flight is left alone — its agent
	// may still be retransmitting Hellos through a lossy link, and closing
	// the master-side session would blackhole it permanently (the transport
	// driver owns that lifetime).
	live := enb != 0 && !s.isClosed()
	if live && m.opts.EchoPeriodTTI > 0 {
		live = m.heartbeat(s, enb)
	}
	if live {
		if st.probe {
			m.rttProbe(s, enb)
		}
		if st.maintain {
			m.maintainSubscription(s, enb)
		}
		if m.opts.CmdRetryTTI > 0 {
			st.fails = m.retransmit(s, enb, st.fails)
		}
		if st.grade {
			st.health = m.grade(s, enb, st.health)
		}
	}
	s.qmu.Lock()
	s.gone = s.closed && len(s.queue) == 0
	s.qmu.Unlock()
	st.gone = st.gone || s.gone
}

// heartbeat is the liveness probe: a session that delivered nothing for
// EchoPeriodTTI cycles is sent an Echo; each further silent period is a
// miss, and exceeding EchoMissBudget closes the session (RIB disconnect +
// down event). Any applied inbound message resets the miss count — with
// per-TTI reporting the probes never even fire. It reports whether the
// session is still open.
func (m *Master) heartbeat(s *session, enb lte.ENBID) bool {
	period := lte.Subframe(m.opts.EchoPeriodTTI)
	if m.cycle-s.lastInbound < period {
		return true
	}
	if s.lastEcho > s.lastInbound && m.cycle-s.lastEcho < period {
		return true // probe outstanding; give it a full period
	}
	if s.echoMisses >= m.opts.EchoMissBudget {
		m.closeSession(s) // queues the down event
		return false
	}
	s.echoMisses++
	s.lastEcho = m.cycle
	var ts int64
	if m.loopStats.Load() != nil {
		ts = time.Now().UnixNano() // liveness probes double as RTT samples
	}
	msg := protocol.AcquireMessage(enb, m.cycle, &protocol.Echo{
		Seq:      uint64(s.echoMisses),
		SenderSF: m.cycle,
		TS:       ts,
	})
	s.send(msg) //nolint:errcheck // a failed probe shows up as continued silence
	return true
}

// rttProbe sends one wall-clock-stamped Echo; the agent mirrors the stamp
// in its EchoReply and applyInbound observes the round trip. Only the
// wall-clock deployment enables it (see SetLoopStats), so probe traffic
// never perturbs simulated scenarios.
func (m *Master) rttProbe(s *session, enb lte.ENBID) {
	msg := protocol.AcquireMessage(enb, m.cycle, &protocol.Echo{
		SenderSF: m.cycle,
		TS:       time.Now().UnixNano(),
	})
	s.send(msg) //nolint:errcheck // a lost probe is just a missing sample
}

// maintainSubscription re-issues the default subscriptions toward an agent
// whose reporting went quiet (lost subscription or restarted agent).
func (m *Master) maintainSubscription(s *session, enb lte.ENBID) {
	if m.cycle-s.lastReport <= staleAfter || m.cycle-s.lastWelcome <= staleAfter {
		return // reporting, or already re-welcomed this window
	}
	if !m.rib.Connected(enb) {
		return
	}
	m.welcome(enb)
	// Back off on a dedicated clock: overwriting lastReport here would
	// reset the health monitor's staleness signal and let a wedged agent
	// oscillate below Suspect once per maintenance window.
	s.lastWelcome = m.cycle
}

// dropGone removes the sessions the session step marked gone from the
// ingest list. Sessions attached since the tick's snapshot are kept: they
// were never stepped. Master.mu held.
func (m *Master) dropGone() {
	live := m.ingest[:0]
	for _, s := range m.ingest {
		if !s.gone {
			live = append(live, s)
		}
	}
	clear(m.ingest[len(live):])
	m.ingest = live
}

// Cycle returns the number of completed task-manager cycles.
func (m *Master) Cycle() lte.Subframe {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cycle
}
