// Package agent implements the FlexRAN Agent (paper §4.3.1): the local
// controller co-located with each eNodeB. It installs itself into the data
// plane's hook surface, executes the active Virtual Subsystem Functions
// for time-critical operations, relays statistics reports and events to
// the master, and hosts the control-delegation machinery (VSF cache and
// updation, policy reconfiguration).
//
// The agent is transport-agnostic: it emits messages through an injected
// send function and consumes messages via Deliver, so the same code runs
// over the simulated virtual-time link and over TCP (paper §4.3.2's
// "abstract communication channel").
package agent

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
	"flexran/internal/wire"
	"flexran/internal/yamlite"
)

// Options configures agent policy.
type Options struct {
	// RequireSignedVSFs makes InstallVSF verify the trust signature
	// before caching pushed code.
	RequireSignedVSFs bool
	// TrustKey overrides the deployment trust key.
	TrustKey string
	// HelloRetryTTI is the Hello retransmission period: until the master's
	// HelloAck (for the current epoch) arrives, the agent re-sends its
	// Hello every HelloRetryTTI subframes, so a handshake lost on an
	// impaired control channel can never strand the agent unwelcomed.
	// 0 uses DefaultHelloRetryTTI; negative disables retransmission.
	HelloRetryTTI int
}

// DefaultHelloRetryTTI is the default Hello retransmission period (ms).
const DefaultHelloRetryTTI = 20

// maxReportNeighbors caps the neighbour list carried in one MeasReport
// (the strongest cells; 3GPP reports are similarly bounded).
const maxReportNeighbors = 8

// a3State tracks one UE's A3 entering condition between measurements.
type a3State struct {
	// since is the subframe the condition started holding.
	since lte.Subframe
	// reported suppresses duplicate reports while the episode persists;
	// it re-arms when the condition clears or the UE detaches.
	reported bool
	// lastReport schedules the periodic repeat (RRC report_interval_tti)
	// while the condition keeps holding — the retry path when a handover
	// command or completion was lost in transit.
	lastReport lte.Subframe
}

// HandoverExecutor performs the data-plane side of a handover command:
// moving the UE context from this agent's eNodeB to the target. The
// environment hosting the agent installs it (the simulator defers the move
// to a deterministic point of the TTI); without one, handover commands are
// rejected.
// The command is only valid for the duration of the call (the message may
// be pooled); executors that defer work must copy it, as the simulator does.
type HandoverExecutor func(cmd *protocol.HandoverCommand) error

// statsSub is one registered statistics subscription.
type statsSub struct {
	req      protocol.StatsRequest
	started  lte.Subframe
	lastHash uint64 // for triggered mode
	sentOnce bool
	// rep is the subscription's reusable report: refilled in place every
	// period, serialized synchronously by the transport on emit, never
	// retained by the receive side (the master copies out what it keeps).
	rep protocol.StatsReply
}

// Agent is one FlexRAN agent fronting one eNodeB.
type Agent struct {
	mu   sync.Mutex
	enb  *enb.ENB
	send func(*protocol.Message) error
	opts Options

	mac     *MACModule
	mgmt    *MgmtModule
	rrc     *RRCModule
	modules map[string]Module

	subs map[uint32]*statsSub
	// subList mirrors subs sorted by subscription id. It is rebuilt on
	// (rare) subscription changes so the per-TTI sweep iterates a stable,
	// deterministic order without sorting every subframe.
	subList []*statsSub

	// a3 tracks the per-UE A3 entering condition (RRC module mobility
	// parameters applied to the eNodeB's measurement stream).
	a3     map[lte.RNTI]*a3State
	hoExec HandoverExecutor

	// epoch is the session incarnation counter carried in Hello: bumped on
	// every Connect, preserved across Restart (a deployment would persist
	// it as a boot counter) so the master's epoch fence stays a total
	// order. helloAcked/lastHello drive the Hello retransmission loop.
	epoch      uint64
	helloAcked bool
	lastHello  lte.Subframe

	// stalled models a wedged control loop (the agent_stall fault): the
	// TTI hooks do nothing — no reports, no triggers, no measurement
	// events — while the transport-level echo path stays responsive.
	stalled bool

	// cmdSeen dedups reliably-delivered commands by their envelope CmdSeq
	// (retransmits re-ack the recorded outcome without re-applying);
	// cmdOrder tracks insertion order so pruning at cmdSeenCap stays
	// deterministic. Both are volatile: a restart drops them, and the
	// master fails the dead session's pending commands rather than
	// retransmitting old sequence numbers at the new incarnation.
	cmdSeen  map[uint64]bool
	cmdOrder []uint64
	// cmdApplied counts first-time sequenced applications (dedup hits
	// excluded) — the exactly-once observable.
	cmdApplied int

	// droppedSends counts messages lost because no transport is attached
	// or the transport failed; surfaced for diagnostics.
	droppedSends int

	// loopStats, when attached (wall-clock deployments), receives the
	// report leg of the real-time engine's latency accounting: encode+send
	// duration per emitted statistics report. Nil in simulated runs, where
	// every observation is skipped.
	loopStats *metrics.LoopStats

	// Per-TTI scratch, reused across subframes so steady-state reporting
	// allocates nothing: the cell snapshots, the due-subscription sweep
	// and the triggered-mode fingerprint encoder.
	cellScratch []enb.CellReport
	subScratch  []*statsSub
	hashEnc     wire.Encoder
}

// New builds an agent and wires it into the eNodeB's control hooks. From
// this point on, every scheduling decision of the data plane flows through
// the agent's MAC control module.
func New(e *enb.ENB, opts Options) *Agent {
	if opts.TrustKey == "" {
		opts.TrustKey = protocol.DefaultTrustKey
	}
	a := &Agent{
		enb:  e,
		opts: opts,
		mac:  NewMACModule(),
		mgmt: NewMgmtModule(),
		rrc:  NewRRCModule(),
		subs: map[uint32]*statsSub{},
		a3:   map[lte.RNTI]*a3State{},
	}
	a.modules = map[string]Module{
		a.mac.Name():  a.mac,
		a.mgmt.Name(): a.mgmt,
		a.rrc.Name():  a.rrc,
	}
	// The MAC module picks the operation's VSF by in.Dir.
	schedule := func(_ lte.CellID, in sched.Input) []sched.Alloc { return a.mac.Schedule(in) }
	e.SetHooks(enb.Hooks{
		DLSchedule:    schedule,
		ULSchedule:    schedule,
		OnUEEvent:     a.onUEEvent,
		OnSubframe:    a.onSubframe,
		OnMeasurement: a.onMeasurement,
	})
	return a
}

// MAC exposes the MAC control module (local applications and tests).
func (a *Agent) MAC() *MACModule { return a.mac }

// RRC exposes the RRC control module.
func (a *Agent) RRC() *RRCModule { return a.rrc }

// ENB returns the fronted data plane.
func (a *Agent) ENB() *enb.ENB { return a.enb }

// SetLoopStats attaches the real-time engine's latency sink: every
// statistics report emitted from the TTI hook observes its encode+send
// duration into ls.Report. Passing nil detaches (the default; simulated
// runs never attach one).
func (a *Agent) SetLoopStats(ls *metrics.LoopStats) {
	a.mu.Lock()
	a.loopStats = ls
	a.mu.Unlock()
}

// Connect attaches the outbound transport, bumps the session epoch and
// sends the Hello handshake. The Hello is retransmitted from the TTI loop
// until the master's HelloAck for this epoch arrives (see onSubframe), so
// a lossy control channel cannot leave the agent unwelcomed forever.
func (a *Agent) Connect(send func(*protocol.Message) error) {
	a.mu.Lock()
	a.send = send
	a.epoch++
	a.helloAcked = false
	a.mu.Unlock()
	a.sendHello()
}

// Epoch returns the agent's current session epoch.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// HelloAcked reports whether the current epoch's handshake completed.
func (a *Agent) HelloAcked() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.helloAcked
}

// Restart models an agent process restart: the transport, the statistics
// subscriptions and the per-UE A3 episodes are volatile state and are
// dropped; the epoch counter survives (persisted boot counter) so the next
// Connect still moves the fence forward. Module state (VSF cache, policy)
// is modeled as persistent storage and kept.
func (a *Agent) Restart() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.send = nil
	a.helloAcked = false
	a.subs = map[uint32]*statsSub{}
	a.subList = a.subList[:0]
	a.a3 = map[lte.RNTI]*a3State{}
	a.stalled = false
	a.cmdSeen = nil
	a.cmdOrder = a.cmdOrder[:0]
}

// SetStalled wedges or unwedges the agent's control loop (the agent_stall
// gray fault): while stalled, the TTI hooks emit nothing and the host
// environment withholds every inbound message except liveness echoes.
func (a *Agent) SetStalled(stalled bool) {
	a.mu.Lock()
	a.stalled = stalled
	a.mu.Unlock()
}

// Stalled reports whether the control loop is wedged.
func (a *Agent) Stalled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stalled
}

// SequencedApplied returns how many reliably-delivered commands this agent
// has applied for the first time — retransmitted duplicates re-ack without
// incrementing, so under any loss/duplication pattern the count equals the
// number of distinct commands that got through.
func (a *Agent) SequencedApplied() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cmdApplied
}

// sendHello (re)transmits the handshake for the current epoch.
func (a *Agent) sendHello() {
	a.mu.Lock()
	epoch := a.epoch
	a.lastHello = a.enb.Now()
	a.mu.Unlock()
	a.emit(&protocol.Hello{
		Version: protocol.ProtocolVersion,
		Epoch:   epoch,
		Config:  a.enb.Config(),
	})
}

// helloRetry returns the effective retransmission period (0 = disabled).
func (a *Agent) helloRetry() int {
	switch {
	case a.opts.HelloRetryTTI > 0:
		return a.opts.HelloRetryTTI
	case a.opts.HelloRetryTTI == 0:
		return DefaultHelloRetryTTI
	default:
		return 0
	}
}

// emit sends a payload to the master, stamping the envelope.
func (a *Agent) emit(p protocol.Payload) {
	a.mu.Lock()
	send := a.send
	a.mu.Unlock()
	if send == nil {
		a.mu.Lock()
		a.droppedSends++
		a.mu.Unlock()
		return
	}
	if err := send(protocol.New(a.enb.ID(), a.enb.Now(), p)); err != nil {
		a.mu.Lock()
		a.droppedSends++
		a.mu.Unlock()
	}
}

// DroppedSends reports messages lost for lack of a working transport.
func (a *Agent) DroppedSends() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.droppedSends
}

// Deliver processes one message from the master (the message handler and
// dispatcher of Fig. 2). It must be called from the same goroutine that
// steps the eNodeB (sim loop) or with external serialization (TCP driver).
func (a *Agent) Deliver(m *protocol.Message) {
	if m.CmdSeq != 0 {
		a.deliverSequenced(m)
		return
	}
	a.dispatch(m)
}

// deliverSequenced applies a reliably-delivered command exactly once: a
// sequence number already seen re-acks its recorded outcome without
// touching the data plane (the master retransmitted because our ack was
// late or lost), a fresh one applies and records. Every sequenced message
// is acked, success or failure, so the master can retire its retransmit
// state.
func (a *Agent) deliverSequenced(m *protocol.Message) {
	seq := m.CmdSeq
	a.mu.Lock()
	ok, seen := a.cmdSeen[seq]
	a.mu.Unlock()
	if seen {
		a.emit(&protocol.ControlAck{OK: ok, Seq: seq})
		return
	}
	var err error
	switch p := m.Payload.(type) {
	case *protocol.VSFUpdate:
		err = a.installVSF(p)
	case *protocol.PolicyReconf:
		err = a.Reconfigure(p.Doc)
	case *protocol.HandoverCommand:
		err = a.execHandover(p)
	default:
		// Other sequenced kinds apply through the normal dispatcher and
		// are acked as received (their handlers have no failure path).
		a.dispatch(m)
	}
	ok = err == nil
	a.mu.Lock()
	if a.cmdSeen == nil {
		a.cmdSeen = map[uint64]bool{}
	}
	a.cmdSeen[seq] = ok
	a.cmdApplied++
	a.cmdOrder = append(a.cmdOrder, seq)
	// Deterministic pruning: drop the oldest entries once the dedup
	// window overflows (a master never retransmits across that much
	// later traffic — the retry budget is far smaller).
	for len(a.cmdOrder) > cmdSeenCap {
		delete(a.cmdSeen, a.cmdOrder[0])
		a.cmdOrder = a.cmdOrder[1:]
	}
	a.mu.Unlock()
	if err != nil {
		a.emit(&protocol.ControlAck{OK: false, Detail: err.Error(), Seq: seq})
		return
	}
	a.emit(&protocol.ControlAck{OK: true, Seq: seq})
}

// cmdSeenCap bounds the reliable-delivery dedup window.
const cmdSeenCap = 4096

// execHandover runs the installed handover executor.
func (a *Agent) execHandover(p *protocol.HandoverCommand) error {
	a.mu.Lock()
	exec := a.hoExec
	a.mu.Unlock()
	if exec == nil {
		return fmt.Errorf("agent: no handover executor attached")
	}
	return exec(p)
}

// dispatch routes one unsequenced message to its handler.
func (a *Agent) dispatch(m *protocol.Message) {
	switch p := m.Payload.(type) {
	case *protocol.HelloAck:
		// Session established: stop retransmitting the Hello. An ack
		// carrying a foreign epoch is a leftover from a previous
		// incarnation and must not silence the current handshake
		// (epoch 0 acks come from pre-epoch masters and are accepted).
		a.mu.Lock()
		if p.Epoch == 0 || p.Epoch == a.epoch {
			a.helloAcked = true
		}
		a.mu.Unlock()
	case *protocol.ResyncRequest:
		a.emit(a.buildSnapshot())
	case *protocol.Echo:
		// TS is mirrored verbatim (the EchoTS path): the master measures
		// the command round trip against its own clock, so the agent never
		// needs a synchronized one.
		a.emit(&protocol.EchoReply{Seq: p.Seq, SenderSF: p.SenderSF, TS: p.TS})
	case *protocol.ENBConfigRequest:
		a.emit(&protocol.ENBConfigReply{Config: a.enb.Config()})
	case *protocol.UEConfigRequest:
		a.emit(a.ueConfigReply())
	case *protocol.StatsRequest:
		a.handleStatsRequest(p)
	case *protocol.DLSchedule:
		a.mac.PushDecision(OpDLUESched, p.TargetSF, a.enb.Now(), fromProtocolAllocs(p.Allocs))
	case *protocol.ULSchedule:
		a.mac.PushDecision(OpULUESched, p.TargetSF, a.enb.Now(), fromProtocolAllocs(p.Allocs))
	case *protocol.VSFUpdate:
		a.ack(a.installVSF(p))
	case *protocol.PolicyReconf:
		a.ack(a.Reconfigure(p.Doc))
	case *protocol.HandoverCommand:
		if err := a.execHandover(p); err != nil {
			a.ack(err)
		}
		// Success is acknowledged by the target agent's HandoverComplete,
		// not by a ControlAck from this side.
	}
}

// SetHandoverExecutor installs the data-plane handover path. The simulator
// installs an executor that defers the context move to after the TTI's
// control phase;
// rejecting commands is the behaviour without one.
func (a *Agent) SetHandoverExecutor(exec HandoverExecutor) {
	a.mu.Lock()
	a.hoExec = exec
	a.mu.Unlock()
}

// NotifyHandoverComplete reports an admitted handover UE to the master
// (called by the environment after enb.AdmitUE on the target eNodeB).
func (a *Agent) NotifyHandoverComplete(rnti lte.RNTI, imsi uint64, cell lte.CellID, from lte.ENBID, fromRNTI lte.RNTI) {
	a.emit(&protocol.HandoverComplete{
		RNTI: rnti, IMSI: imsi, Cell: cell,
		SourceENB: from, SourceRNTI: fromRNTI,
	})
}

// onMeasurement runs the A3 evaluation for one UE's measurement sweep: the
// RRC module's hysteresis and time-to-trigger (Table 1's "threshold of
// signal quality for handover initiation") gate when a MeasReport leaves
// the agent. One report is emitted per A3 episode. The entering condition
// reads RSRP only; the RSRQ and the neighbour ranking a report carries are
// computed only when one fires.
func (a *Agent) onMeasurement(rnti lte.RNTI, cell lte.CellID, serving radio.Meas, neighbors []radio.Meas) {
	if a.Stalled() {
		return
	}
	hys := a.rrc.Hysteresis()
	ttt := a.rrc.TimeToTrigger()
	entered := false
	if len(neighbors) > 0 {
		strongest := neighbors[0].RSRPdBm
		for _, n := range neighbors[1:] {
			strongest = max(strongest, n.RSRPdBm)
		}
		entered = strongest > serving.RSRPdBm+hys
	}
	a.mu.Lock()
	if !entered {
		delete(a.a3, rnti) // condition cleared: re-arm
		a.mu.Unlock()
		return
	}
	now := a.enb.Now()
	st := a.a3[rnti]
	if st == nil {
		st = &a3State{since: now}
		a.a3[rnti] = st
	}
	fire := int(now-st.since) >= ttt
	if fire && st.reported {
		// Already reported this episode: repeat only at the configured
		// report interval (0 = never), so a lost command cannot strand
		// the UE for the rest of the episode.
		ri := a.rrc.ReportInterval()
		fire = ri > 0 && int(now-st.lastReport) >= ri
	}
	if fire {
		st.reported = true
		st.lastReport = now
	}
	a.mu.Unlock()
	if !fire {
		return
	}
	// RSRQ = RSRP - RSSI; the serving RSRQ stays 0 when the serving eNodeB
	// has no site (the zero serving Meas). The UE's channel has just
	// measured, so it has an RSSI.
	rssi, _ := a.enb.RSSIdBm(rnti)
	if serving != (radio.Meas{}) {
		serving.RSRQdB = serving.RSRPdBm - rssi
	}
	rep := &protocol.MeasReport{
		RNTI: rnti, Cell: cell,
		ServingRSRPdBm: int32(math.Round(serving.RSRPdBm)),
		ServingRSRQdB:  int32(math.Round(serving.RSRQdB)),
	}
	if r, ok := a.enb.UEReport(rnti); ok {
		rep.IMSI = r.IMSI
	}
	radio.RankNeighbors(neighbors)
	if len(neighbors) > maxReportNeighbors {
		neighbors = neighbors[:maxReportNeighbors]
	}
	for _, n := range neighbors {
		rep.Neighbors = append(rep.Neighbors, protocol.NeighborMeas{
			ENB: n.ENB, Cell: n.Cell,
			RSRPdBm: int32(math.Round(n.RSRPdBm)),
			RSRQdB:  int32(math.Round(n.RSRPdBm - rssi)),
		})
	}
	a.emit(rep)
}

func (a *Agent) ack(err error) {
	if err != nil {
		a.emit(&protocol.ControlAck{OK: false, Detail: err.Error()})
		return
	}
	a.emit(&protocol.ControlAck{OK: true})
}

func (a *Agent) installVSF(up *protocol.VSFUpdate) error {
	if a.opts.RequireSignedVSFs {
		if err := up.Verify(a.opts.TrustKey); err != nil {
			return fmt.Errorf("agent: %w", err)
		}
	}
	mod, ok := a.modules[up.Module]
	if !ok {
		return fmt.Errorf("agent: unknown control module %q", up.Module)
	}
	return mod.InstallVSF(up)
}

// Reconfigure applies a policy document (yamlite text) across modules.
// It is exported so local applications can reconfigure a co-located agent
// directly, exactly as the master does remotely.
func (a *Agent) Reconfigure(doc string) error {
	root, err := yamlite.Parse(doc)
	if err != nil {
		return fmt.Errorf("agent: policy parse: %w", err)
	}
	if root.Kind != yamlite.KindMap {
		return fmt.Errorf("agent: policy document must be a map of modules")
	}
	for _, modName := range root.Keys() {
		mod, ok := a.modules[modName]
		if !ok {
			return fmt.Errorf("agent: unknown control module %q", modName)
		}
		if err := mod.Reconfigure(root.Get(modName)); err != nil {
			return err
		}
	}
	return nil
}

func (a *Agent) handleStatsRequest(req *protocol.StatsRequest) {
	now := a.enb.Now()
	switch req.Mode {
	case protocol.StatsOneOff:
		a.emit(a.buildReport(req, &protocol.StatsReply{}, now))
	case protocol.StatsPeriodic:
		a.mu.Lock()
		if req.PeriodTTI == 0 {
			delete(a.subs, req.ID)
		} else {
			a.subs[req.ID] = &statsSub{req: *req, started: now}
		}
		a.rebuildSubList()
		a.mu.Unlock()
	case protocol.StatsTriggered:
		a.mu.Lock()
		a.subs[req.ID] = &statsSub{req: *req, started: now}
		a.rebuildSubList()
		a.mu.Unlock()
	}
}

// rebuildSubList refreshes the id-sorted subscription list (a.mu held).
// Subscriptions change only on StatsRequest handling, so the per-TTI
// sweep never sorts.
func (a *Agent) rebuildSubList() {
	a.subList = a.subList[:0]
	for _, s := range a.subs {
		a.subList = append(a.subList, s)
	}
	sort.Slice(a.subList, func(i, j int) bool {
		return a.subList[i].req.ID < a.subList[j].req.ID
	})
}

// onSubframe is the agent's TTI tick (installed as an eNodeB hook): it
// retransmits an unacknowledged Hello, then emits subframe-sync triggers
// and due statistics reports.
// NextWork returns the earliest subframe >= from at which onSubframe would
// do observable work: a pending Hello retransmission, a subframe-sync
// trigger, or a subscription report. lte.NeverSF means the agent is fully
// quiescent and its eNodeB may be fast-forwarded past its control ticks.
// Triggered subscriptions rebuild and hash a report every TTI (the report
// content depends on the decaying rate averages), so their presence pins
// the agent awake.
func (a *Agent) NextWork(from lte.Subframe) lte.Subframe {
	a.mu.Lock()
	stalled := a.stalled
	a.mu.Unlock()
	if stalled {
		// A wedged control loop does no TTI work: nothing to wake for.
		return lte.NeverSF
	}
	next := lte.NeverSF
	if p := a.mgmt.SyncPeriod(); p > 0 {
		pp := lte.Subframe(p)
		if w := from + (pp-from%pp)%pp; w < next {
			next = w
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if retry := a.helloRetry(); retry > 0 && a.send != nil && !a.helloAcked {
		w := a.lastHello + lte.Subframe(retry)
		if w < from {
			w = from
		}
		if w < next {
			next = w
		}
	}
	for _, s := range a.subList {
		switch s.req.Mode {
		case protocol.StatsPeriodic:
			period := lte.Subframe(s.req.PeriodTTI)
			if period == 0 {
				continue
			}
			w := from
			if delta := (from - s.started) % period; delta != 0 {
				w = from + period - delta
			}
			if w < next {
				next = w
			}
		case protocol.StatsTriggered:
			return from
		}
	}
	return next
}

func (a *Agent) onSubframe(sf lte.Subframe) {
	if a.Stalled() {
		return
	}
	if retry := a.helloRetry(); retry > 0 {
		a.mu.Lock()
		resend := a.send != nil && !a.helloAcked && int(sf-a.lastHello) >= retry
		a.mu.Unlock()
		if resend {
			a.sendHello()
		}
	}
	if p := a.mgmt.SyncPeriod(); p > 0 && int(sf)%p == 0 {
		a.emit(&protocol.SubframeTrigger{SF: sf})
	}
	// Snapshot the presorted subscription list. Deliver runs on the same
	// goroutine as this hook (the agent's serialization contract), so the
	// copy exists only to keep iteration stable if a StatsRequest handled
	// later this subframe rebuilds the list.
	a.mu.Lock()
	subs := append(a.subScratch[:0], a.subList...)
	a.subScratch = subs
	ls := a.loopStats
	a.mu.Unlock()
	var t0 time.Time
	for _, s := range subs {
		switch s.req.Mode {
		case protocol.StatsPeriodic:
			if int(sf-s.started)%int(s.req.PeriodTTI) == 0 {
				if ls != nil {
					t0 = time.Now()
				}
				a.emit(a.buildReport(&s.req, &s.rep, sf))
				if ls != nil {
					ls.Report.Observe(time.Since(t0))
				}
			}
		case protocol.StatsTriggered:
			if ls != nil {
				t0 = time.Now()
			}
			rep := a.buildReport(&s.req, &s.rep, sf)
			h := a.reportHash(rep)
			if !s.sentOnce || h != s.lastHash {
				s.sentOnce = true
				s.lastHash = h
				a.emit(rep)
				if ls != nil {
					ls.Report.Observe(time.Since(t0))
				}
			}
		}
	}
}

// buildReport assembles a StatsReply for a subscription's content flags,
// refilling rep in place: the eNodeB writes its UE lanes straight into the
// per-subscription reply's table, whose capacity is reused every period, so
// steady-state report construction allocates nothing. The returned reply
// (== rep) is valid until the subscription's next report is built;
// transports serialize it synchronously on emit.
func (a *Agent) buildReport(req *protocol.StatsRequest, rep *protocol.StatsReply, sf lte.Subframe) *protocol.StatsReply {
	rep.ID, rep.SF = req.ID, sf
	rep.Cells = rep.Cells[:0]
	if req.Flags&(protocol.StatsQueues|protocol.StatsCQI|protocol.StatsRates|protocol.StatsHARQ) != 0 {
		a.enb.FillUETable(&rep.UEs, req.Flags)
	} else {
		rep.UEs.Resize(0)
	}
	if req.Flags&protocol.StatsCell != 0 {
		a.cellScratch = a.enb.AppendCellReports(a.cellScratch[:0])
		for _, c := range a.cellScratch {
			rep.Cells = append(rep.Cells, c.ToProtocolCellStats())
		}
	}
	return rep
}

// FNV-1a constants (the stdlib hash/fnv interface forces an allocation per
// hasher, so the triggered-mode fingerprint folds the bytes inline).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// reportHash fingerprints a report's content, excluding the subframe stamp
// so triggered subscriptions fire only on real changes. The report is
// serialized into the agent's reused scratch encoder (no clone, no per-call
// allocation); the SF field is zeroed for hashing and restored.
func (a *Agent) reportHash(rep *protocol.StatsReply) uint64 {
	sf := rep.SF
	rep.SF = 0
	a.hashEnc.Reset()
	rep.MarshalWire(&a.hashEnc)
	rep.SF = sf
	h := uint64(fnvOffset64)
	for _, c := range a.hashEnc.Bytes() {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// buildSnapshot assembles the agent's authoritative state for a resync:
// the eNodeB configuration, one full statistics row plus identity per UE
// (RNTI order), the cell statistics and the active subscriptions. Snapshots
// are rare (reconnects), so this path allocates freely.
func (a *Agent) buildSnapshot() *protocol.StateSnapshot {
	a.mu.Lock()
	snap := &protocol.StateSnapshot{Epoch: a.epoch}
	for _, s := range a.subList {
		snap.Subs = append(snap.Subs, s.req)
	}
	a.mu.Unlock()
	snap.SF = a.enb.Now()
	snap.Config = a.enb.Config()
	a.enb.FillUETable(&snap.UEs, protocol.StatsAll)
	for _, r := range a.enb.UEReports() {
		snap.Configs = append(snap.Configs, protocol.UEConfig{
			RNTI: r.RNTI, Cell: r.Cell, IMSI: r.IMSI,
		})
	}
	for _, c := range a.enb.CellReports() {
		snap.Cells = append(snap.Cells, c.ToProtocolCellStats())
	}
	return snap
}

func (a *Agent) ueConfigReply() *protocol.UEConfigReply {
	rep := &protocol.UEConfigReply{}
	for _, r := range a.enb.UEReports() {
		rep.UEs = append(rep.UEs, protocol.UEConfig{RNTI: r.RNTI, Cell: r.Cell, IMSI: r.IMSI})
	}
	return rep
}

func (a *Agent) onUEEvent(ev protocol.UEEventType, rnti lte.RNTI, cellID lte.CellID) {
	if ev == protocol.UEEventDetach {
		a.mu.Lock()
		delete(a.a3, rnti) // the UE left this cell; drop its A3 episode
		a.mu.Unlock()
	}
	// Detach events always reach the master: removing the UE from this
	// agent's RIB shard is the source half of a handover migration, and
	// suppressing it (forward_events: false) would leak ghost records.
	// The knob gates only the chatty attach/RA/SR notifications.
	if a.Stalled() {
		// A wedged control loop forwards nothing — including detaches. The
		// master's RIB goes stale, exactly the gray failure the health
		// monitor's report-staleness path is built to catch.
		return
	}
	if ev == protocol.UEEventDetach || a.mgmt.ForwardEvents() {
		a.emit(&protocol.UEEvent{Type: ev, RNTI: rnti, Cell: cellID})
	}
}

func fromProtocolAllocs(in []protocol.Alloc) []sched.Alloc {
	out := make([]sched.Alloc, len(in))
	for i, p := range in {
		out[i] = sched.Alloc{
			RNTI:    p.RNTI,
			RBStart: int(p.RBStart),
			RBCount: int(p.RBCount),
			MCS:     p.MCS,
		}
	}
	return out
}
