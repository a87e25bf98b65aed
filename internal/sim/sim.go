// Package sim is the scenario harness: it assembles EPC, eNodeBs, FlexRAN
// agents, the master controller and per-UE traffic into one deterministic
// virtual-time simulation stepped subframe by subframe. Every experiment
// in internal/experiments and every runnable example builds on it. Its
// Node is the wall-clock deployment's eNodeB too: NewNode builds one from
// an ENBSpec outside any engine, for the agent loop to inject and step.
//
// One Step() advances the world by one TTI in a fixed order: downlink
// traffic injection (EPC), uplink traffic injection (UEs), delivery of
// agent-to-master control messages that have arrived, one master task-
// manager cycle, delivery of master-to-agent messages, then one data-plane
// subframe per eNodeB. The ordering mirrors the real system's pipeline and
// keeps results reproducible.
//
// The engine is serial by default and can be sharded: with Config.Workers
// > 1 eNodeBs are partitioned across a worker pool and each phase of the
// TTI runs in parallel across the shards with a barrier before the next
// phase. All mutable state touched
// inside a phase is owned by exactly one eNodeB (its node, agent, control
// endpoints and per-session master ingest queue), so results are
// bit-for-bit identical to the serial engine — see TestDeterminism.
//
// A TTI costs its awake eNodeBs, not its attached ones. The awake set, a
// bitset over node indices, names the nodes that run the injection and
// data phases; both phases walk it in ascending index order. A node whose
// wake proof (Node.wake) lies beyond the next subframe leaves the set
// after the data phase and is filed in the wake calendar, an indexed
// min-heap keyed (wake, node index) that returns it at the start of the
// Step it is due. The control phase still visits every node with a
// control channel, because endpoint clocks advance every TTI. Early wakes
// keep the one-owner rule: faults, handovers and cross-eNodeB spills run
// serially and set a node's bit (dropping its calendar entry) directly,
// while a message delivered inside the parallel control phase only flags
// its own node, and the barrier after the phase moves flagged nodes into
// the set.
package sim

import (
	"fmt"
	"sort"

	"flexran/internal/agent"
	"flexran/internal/conc"
	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/epc"
	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/transport"
	"flexran/internal/ue"
)

// UESpec declares one UE of a scenario.
type UESpec struct {
	IMSI    uint64
	Cell    lte.CellID
	Channel radio.Model
	Group   int
	// DL is the downlink traffic source (injected through the EPC);
	// UL the uplink source. Either may be nil.
	DL ue.Generator
	UL ue.Generator
}

// ENBSpec declares one eNodeB of a scenario.
type ENBSpec struct {
	ID    lte.ENBID
	Cells []protocol.CellConfig
	Seed  int64
	// Agent attaches a FlexRAN agent and connects it to the master.
	Agent     bool
	AgentOpts agent.Options
	// ToMaster/ToAgent impair the control channel of this eNodeB.
	ToMaster transport.Netem
	ToAgent  transport.Netem
	// UEs are added at simulation start.
	UEs []UESpec
	// AttachTimeoutTTI overrides the eNodeB attach deadline.
	AttachTimeoutTTI int
}

// Config declares a scenario.
type Config struct {
	// Master enables a master controller with these options; nil runs
	// the eNodeBs standalone (the "vanilla" mode of Fig. 6).
	Master *controller.Options
	// Workers opts into the TTI engine's worker pool: with N > 1 each
	// phase of a Step is partitioned across N goroutines by eNodeB, with
	// barrier synchronization between phases. Any value below 2 runs the
	// engine serially, which is the default because the pool measured
	// slower than the serial engine on every world up to 4,096 eNodeBs at
	// 2 vCPUs. Results are identical for every value (the determinism
	// guarantee the regression tests enforce). Unless Master.Workers is
	// set explicitly, the master's RIB-updater slot inherits the same pool
	// size.
	Workers int
	// NoFastForward disables idle-cell fast-forward: every node stays in
	// the awake set and the wake calendar stays empty, so every eNodeB
	// executes every subframe even when provably idle. Results are
	// bit-for-bit identical either way (the equivalence the digest
	// regression tests enforce); the knob exists for those tests and for
	// baseline benchmarking of the skip machinery.
	NoFastForward bool
}

// Node is the runtime of one eNodeB: its data plane, agent, UEs and
// traffic, stepped by the simulation or, built by NewNode, by a wall-clock
// agent loop.
type Node struct {
	ENB   *enb.ENB
	Agent *agent.Agent // nil when the spec had Agent: false

	aEp     *transport.SimEndpoint // agent side of the control channel
	mEp     *transport.SimEndpoint // master side
	session *controller.AgentSession

	RNTIs []lte.RNTI // by UESpec order
	specs []UESpec
	// bearers holds each UE's EPC bearer, by UESpec order, so per-TTI
	// downlink injection reaches the serving eNodeB without a lookup.
	bearers []*epc.Bearer

	// spill holds downlink injections whose bearer points at a foreign
	// eNodeB (possible after a handover); they are replayed serially
	// after the injection phase so no two workers touch one eNodeB.
	spill []spillDL
	// pendingHO collects handover commands delivered to this node's agent
	// during the control phase; the engine applies them serially at the
	// following barrier, ordered by IMSI, so migrations are deterministic
	// for every worker-pool size.
	pendingHO []protocol.HandoverCommand

	// stalled marks a wedged agent control loop (FaultAgentStall): the
	// transport stays alive and echoes are answered, but every other
	// delivered message is held on stallQ until the matching resume (or
	// dropped by an agent restart).
	stalled bool
	// woken records a control message delivered to this node in the
	// master->agent phase; the barrier after the phase moves the node into
	// the awake set, which no worker may write.
	woken bool
	// idx is the node's position in Sim.Nodes: its bit in the awake set
	// and its key in the wake calendar.
	idx    int32
	stallQ []*protocol.Message
	// phaseErr records a control-channel decode failure inside a
	// parallel phase, surfaced as a panic at the barrier.
	phaseErr error

	// mBatch/aBatch are reusable per-node delivery batches for the two
	// control-phase directions (only message pointers outlive a phase;
	// the slices themselves are scratch).
	mBatch []*protocol.Message
	aBatch []*protocol.Message

	// wake is the node's next subframe with provable own work (eNodeB
	// backlog/measurements, agent control ticks, or traffic-generator
	// activity), recomputed after every executed Step. A wake beyond the
	// next subframe takes the node out of the awake set and files it in
	// the wake calendar under wake (lte.NeverSF files nothing: only an
	// early wake returns such a node); an arriving control message, a
	// cross-eNodeB spill or a fault wakes it early.
	wake lte.Subframe
	// genSF is the subframe the node's traffic generators expect next:
	// it trails the simulation clock while the node sleeps, and the gap
	// is replayed through ue.Idler.Skip before the next injection.
	genSF lte.Subframe
}

type spillDL struct {
	br    *epc.Bearer
	bytes int
}

// AgentMeter returns the agent-to-master signaling meter (Fig. 7a).
func (n *Node) AgentMeter() *metrics.Meter {
	if n.aEp == nil {
		return metrics.NewMeter()
	}
	return n.aEp.Meter()
}

// MasterMeter returns the master-to-agent signaling meter (Fig. 7b).
func (n *Node) MasterMeter() *metrics.Meter {
	if n.mEp == nil {
		return metrics.NewMeter()
	}
	return n.mEp.Meter()
}

// HandoverRecord is one executed UE migration.
type HandoverRecord struct {
	IMSI     uint64
	From     lte.ENBID
	To       lte.ENBID
	FromRNTI lte.RNTI
	ToRNTI   lte.RNTI
	// SF is the subframe the migration was applied in.
	SF lte.Subframe
}

// FaultKind enumerates the scriptable control-plane failures.
type FaultKind int

// Fault kinds.
const (
	// FaultLinkCut blackholes the control channel in both directions and
	// drops everything in flight. The master notices via heartbeat misses
	// (DisconnectAgent + a down event); the agent notices nothing — exactly
	// like a netem blackhole under a TCP session that has not timed out.
	FaultLinkCut FaultKind = iota
	// FaultLinkRestore re-enables the channel and redials: a fresh
	// master-side session is attached and the agent reconnects (epoch
	// bump, new Hello, resync).
	FaultLinkRestore
	// FaultAgentRestart models an agent process crash+supervise cycle:
	// volatile agent state (subscriptions, A3 episodes) is dropped, the
	// old session dies, in-flight control traffic is lost, and the agent
	// reconnects with a bumped epoch.
	FaultAgentRestart
	// FaultNetemSet re-impairs a live control channel mid-run, per
	// direction (the gray-failure analogue of `tc qdisc change`): the
	// fault's ToMaster/ToAgent fields replace the respective direction's
	// Netem; a nil direction is left untouched.
	FaultNetemSet
	// FaultAgentStall wedges the agent's control loop while the process
	// stays alive at the transport: echoes are still answered (the I/O
	// thread lives), but no reports are produced and every other inbound
	// message is held unprocessed. The eNodeB data plane keeps running —
	// the local MAC is untouched, only the FlexRAN control loop hangs.
	FaultAgentStall
	// FaultAgentResume unwedges a stalled agent: the held backlog is
	// applied in arrival order, then normal processing continues.
	FaultAgentResume
)

func (k FaultKind) String() string {
	switch k {
	case FaultLinkCut:
		return "link_cut"
	case FaultLinkRestore:
		return "link_restore"
	case FaultAgentRestart:
		return "agent_restart"
	case FaultNetemSet:
		return "netem_set"
	case FaultAgentStall:
		return "agent_stall"
	case FaultAgentResume:
		return "agent_resume"
	}
	return "unknown"
}

// Fault is one scheduled failure-injection event. Faults fire at the start
// of the Step whose subframe matches At (before traffic injection), in
// (At, insertion) order — chaos runs are deterministic and replayable.
type Fault struct {
	At   lte.Subframe
	Kind FaultKind
	ENB  lte.ENBID
	// ToMaster/ToAgent carry the replacement impairments of a
	// FaultNetemSet (nil leaves that direction unchanged); ignored by
	// every other kind.
	ToMaster *transport.Netem
	ToAgent  *transport.Netem
}

// Sim is a running scenario.
type Sim struct {
	Master *controller.Master // nil without a master
	EPC    *epc.EPC
	Nodes  []*Node

	byENB   map[lte.ENBID]*Node
	hoLog   []HandoverRecord
	faults  []Fault // sorted by At, stable
	sf      lte.Subframe
	workers int
	noFF    bool

	// awake holds the nodes that run the injection and data phases of
	// this TTI; cal files the sleepers with a finite wake. A node is in at
	// most one of them.
	awake nodeSet
	cal   calendar
	// run is the awake set as ascending indices, rebuilt before each of
	// the two phases that walk it.
	run []int32
	// linked lists the nodes with a control channel to the master: the
	// control phase's nodes.
	linked []int32
}

// NewNode builds one eNodeB from its spec with an EPC of its own: the node
// a wall-clock agent loop steps. It has no control channel (the loop dials
// one; ToMaster and ToAgent are ignored) and no handover executor, so its
// agent rejects handover commands.
func NewNode(spec ENBSpec) (*Node, error) {
	n := newNode(spec)
	if err := n.addUEs(epc.New()); err != nil {
		return nil, err
	}
	return n, nil
}

// newNode builds a spec's eNodeB and, when the spec asks for one, its
// agent. addUEs completes the node; a caller that links the agent does so
// in between, so the Hello and the UEs' random-access events ride the link.
func newNode(spec ENBSpec) *Node {
	e := enb.New(enb.Config{
		ID:               spec.ID,
		Cells:            spec.Cells,
		Seed:             spec.Seed,
		AttachTimeoutTTI: spec.AttachTimeoutTTI,
	})
	n := &Node{ENB: e, specs: spec.UEs}
	if spec.Agent {
		n.Agent = agent.New(e, spec.AgentOpts)
	}
	return n
}

// addUEs registers the node's eNodeB with c and adds the spec's UEs, each
// with its EPC bearer.
func (n *Node) addUEs(c *epc.EPC) error {
	c.Register(n.ENB)
	for _, u := range n.specs {
		rnti, err := n.ENB.AddUE(enb.UEParams{
			IMSI: u.IMSI, Cell: u.Cell, Channel: u.Channel, Group: u.Group,
		})
		if err != nil {
			return fmt.Errorf("sim: adding UE %d: %w", u.IMSI, err)
		}
		br, err := c.Attach(u.IMSI, n.ENB.ID(), rnti)
		if err != nil {
			return fmt.Errorf("sim: bearer for UE %d: %w", u.IMSI, err)
		}
		n.RNTIs = append(n.RNTIs, rnti)
		n.bearers = append(n.bearers, br)
	}
	return nil
}

// New builds a scenario: eNodeBs, agents, control channels, EPC bearers
// and UEs (whose attach procedures start at subframe 0).
func New(cfg Config, enbs ...ENBSpec) (*Sim, error) {
	workers := max(cfg.Workers, 1)
	s := &Sim{EPC: epc.New(), workers: workers, byENB: map[lte.ENBID]*Node{}, noFF: cfg.NoFastForward}
	if cfg.Master != nil {
		mo := *cfg.Master
		if mo.Workers == 0 {
			mo.Workers = workers
		}
		s.Master = controller.NewMaster(mo)
	}
	for _, spec := range enbs {
		n := newNode(spec)
		n.idx = int32(len(s.Nodes))
		if n.Agent != nil {
			// Handover commands are queued on the node and executed at
			// the engine's post-control barrier (deterministic order).
			n.Agent.SetHandoverExecutor(func(cmd *protocol.HandoverCommand) error {
				n.pendingHO = append(n.pendingHO, *cmd)
				return nil
			})
			if s.Master != nil {
				n.aEp, n.mEp = transport.NewSimPair(spec.ToMaster, spec.ToAgent)
				n.session = s.Master.HandleAgentSession(n.mEp.Send)
				n.Agent.Connect(n.aEp.Send)
				s.linked = append(s.linked, n.idx)
			}
		}
		if err := n.addUEs(s.EPC); err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, n)
		s.byENB[spec.ID] = n
	}
	// Every node starts awake: its attach procedures begin at subframe 0.
	s.awake = newNodeSet(len(s.Nodes))
	for _, n := range s.Nodes {
		s.awake.add(n.idx)
	}
	s.cal = newCalendar(len(s.Nodes))
	s.run = make([]int32, 0, len(s.Nodes))
	return s, nil
}

// MustNew is New that panics on scenario construction errors (examples and
// benchmarks with static configurations).
func MustNew(cfg Config, enbs ...ENBSpec) *Sim {
	s, err := New(cfg, enbs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Now returns the current subframe.
func (s *Sim) Now() lte.Subframe { return s.sf }

// Workers reports the engine's worker-pool size.
func (s *Sim) Workers() int { return s.workers }

// forEach runs phase once for every node listed in idx: a plain loop in
// ascending order on the serial engine; with more than one worker the
// nodes are claimed off a shared counter by a pool of goroutines, and the
// call returns only when every node is done (the phase barrier). Phases
// are method expressions, so only the pool allocates.
func (s *Sim) forEach(idx []int32, phase func(*Sim, *Node)) {
	if s.workers < 2 {
		for _, i := range idx {
			phase(s, s.Nodes[i])
		}
		return
	}
	conc.ForEach(s.workers, len(idx), func(k int) { phase(s, s.Nodes[idx[k]]) })
}

// barrier closes a control phase serially: it moves every node a
// delivered message woke into the awake set and surfaces the first error
// a worker recorded.
func (s *Sim) barrier(phase string) {
	for _, i := range s.linked {
		n := s.Nodes[i]
		if n.woken {
			n.woken = false
			s.rouse(n)
		}
		if err := n.phaseErr; err != nil {
			n.phaseErr = nil
			panic(fmt.Sprintf("sim: corrupt control message (%s, eNB %d): %v",
				phase, n.ENB.ID(), err))
		}
	}
}

// rouse puts a node in the awake set for the rest of the TTI, taking it
// out of the wake calendar. Serial only.
func (s *Sim) rouse(n *Node) {
	s.awake.add(n.idx)
	s.cal.remove(n.idx)
}

// injectTraffic is phase 1 for one node.
func (s *Sim) injectTraffic(n *Node) { n.Inject(s.sf) }

// Inject feeds the node's traffic for subframe sf: per-UE downlink bytes
// through the EPC and uplink bytes into the eNodeB. The caller steps the
// eNodeB through sf next, on the same goroutine.
func (n *Node) Inject(sf lte.Subframe) {
	n.skipGens(sf)
	id := n.ENB.ID()
	for i := range n.specs {
		spec := &n.specs[i]
		if spec.DL != nil {
			if b := spec.DL.BytesAt(sf); b > 0 {
				// The bearer normally terminates at this node's own
				// eNodeB; after a handover it may point at a foreign
				// one, whose queues another worker owns — defer those
				// to the serial mop-up after the barrier.
				if br := n.bearers[i]; br.ENB != id {
					n.spill = append(n.spill, spillDL{br: br, bytes: b})
				} else {
					br.Downlink(b) //nolint:errcheck // a detached bearer takes no traffic
				}
			}
		}
		if spec.UL != nil {
			if b := spec.UL.BytesAt(sf); b > 0 {
				n.ENB.ULEnqueue(n.RNTIs[i], b)
			}
		}
	}
	n.genSF = sf + 1
}

// skipGens moves the node's traffic generators from genSF up to sf. The
// node slept over that gap, and its wake proof guaranteed every generator
// inactive there, so the gap is replayed through Skip: bit-exact (the
// Idler contract) and emission-free.
func (n *Node) skipGens(sf lte.Subframe) {
	if n.genSF >= sf {
		return
	}
	gap := int(sf - n.genSF)
	for i := range n.specs {
		if g, ok := n.specs[i].DL.(ue.Idler); ok {
			g.Skip(gap)
		}
		if g, ok := n.specs[i].UL.(ue.Idler); ok {
			g.Skip(gap)
		}
	}
	n.genSF = sf
}

// drainSpill replays deferred cross-eNodeB downlink injections, in node
// and UE order; only the nodes that ran the injection phase can hold any.
// A sleeping target is woken: it now has backlog to serve this very
// subframe.
func (s *Sim) drainSpill() {
	for _, i := range s.run {
		n := s.Nodes[i]
		for _, d := range n.spill {
			if tn := s.byENB[d.br.ENB]; tn != nil {
				s.rouse(tn)
			}
			d.br.Downlink(d.bytes) //nolint:errcheck // a detached bearer takes no traffic
		}
		n.spill = n.spill[:0]
	}
}

// applyHandovers executes the UE migrations commanded during the control
// phase. It runs serially at the barrier between the control and data
// planes, with commands ordered by IMSI, so the outcome is identical for
// every worker-pool size.
func (s *Sim) applyHandovers() {
	type hoJob struct {
		cmd protocol.HandoverCommand
		src *Node
	}
	var jobs []hoJob
	for _, i := range s.linked {
		n := s.Nodes[i]
		for _, cmd := range n.pendingHO {
			jobs = append(jobs, hoJob{cmd: cmd, src: n})
		}
		n.pendingHO = n.pendingHO[:0]
	}
	if len(jobs) == 0 {
		return
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		a, b := jobs[i].cmd, jobs[j].cmd
		if a.IMSI != b.IMSI {
			return a.IMSI < b.IMSI
		}
		if a.RNTI != b.RNTI {
			return a.RNTI < b.RNTI
		}
		return jobs[i].src.ENB.ID() < jobs[j].src.ENB.ID()
	})
	for _, j := range jobs {
		s.executeHandover(j.src, j.cmd)
	}
}

// executeHandover moves one UE's full context from its serving eNodeB to
// the target: data-plane release/admit (with queue forwarding), channel
// retargeting, EPC path switch and the scenario bookkeeping that keeps
// traffic injection following the UE. Invalid commands (unknown target,
// UE already gone) are dropped without touching the source.
func (s *Sim) executeHandover(src *Node, cmd protocol.HandoverCommand) {
	tgt := s.byENB[cmd.TargetENB]
	if tgt == nil || tgt == src {
		return
	}
	idx := -1
	for i, r := range src.RNTIs {
		if r == cmd.RNTI {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // the UE already moved or detached
	}
	cellOK := false
	for _, cc := range tgt.ENB.Config().Cells {
		if cc.Cell == cmd.TargetCell {
			cellOK = true
			break
		}
	}
	if !cellOK {
		return
	}
	// Both data planes mutate below; sync any lagging clock first so the
	// release/admit events fire at the same subframe as without skipping.
	s.wakeNode(src)
	s.wakeNode(tgt)
	// The UE's generators join the target's, whose clock may differ from
	// the source's. Each node either injected this subframe or slept
	// through it with its generators provably silent, so both clocks move
	// past it first.
	src.skipGens(s.sf + 1)
	tgt.skipGens(s.sf + 1)
	st, ok := src.ENB.ReleaseUE(cmd.RNTI)
	if !ok {
		return
	}
	spec, br := src.specs[idx], src.bearers[idx]
	srcCell := st.Params.Cell
	st.Params.Cell = cmd.TargetCell
	if rt, ok := st.Params.Channel.(radio.Retargetable); ok {
		rt.Retarget(cmd.TargetENB)
	}
	newRNTI, err := tgt.ENB.AdmitUE(st)
	if err != nil {
		// Unreachable after the cell check; restore the source binding
		// rather than strand the UE.
		st.Params.Cell = srcCell
		if rt, ok := st.Params.Channel.(radio.Retargetable); ok {
			rt.Retarget(src.ENB.ID())
		}
		if back, backErr := src.ENB.AdmitUE(st); backErr == nil {
			src.RNTIs[idx] = back
			s.EPC.Handover(spec.IMSI, src.ENB.ID(), back) //nolint:errcheck // bearer exists
		}
		return
	}
	s.EPC.Handover(spec.IMSI, cmd.TargetENB, newRNTI) //nolint:errcheck // bearer exists by construction
	src.RNTIs = append(src.RNTIs[:idx], src.RNTIs[idx+1:]...)
	src.specs = append(src.specs[:idx], src.specs[idx+1:]...)
	src.bearers = append(src.bearers[:idx], src.bearers[idx+1:]...)
	spec.Cell = cmd.TargetCell
	tgt.specs = append(tgt.specs, spec)
	tgt.RNTIs = append(tgt.RNTIs, newRNTI)
	tgt.bearers = append(tgt.bearers, br)
	if tgt.Agent != nil {
		tgt.Agent.NotifyHandoverComplete(newRNTI, spec.IMSI, cmd.TargetCell, src.ENB.ID(), cmd.RNTI)
	}
	s.hoLog = append(s.hoLog, HandoverRecord{
		IMSI: spec.IMSI, From: src.ENB.ID(), To: cmd.TargetENB,
		FromRNTI: cmd.RNTI, ToRNTI: newRNTI, SF: s.sf,
	})
}

// InjectFaults schedules failure-injection events. The schedule may be
// extended at any time; events whose At already passed fire on the next
// Step. Requires a master (faults concern the control plane).
func (s *Sim) InjectFaults(faults ...Fault) {
	s.faults = append(s.faults, faults...)
	sort.SliceStable(s.faults, func(i, j int) bool {
		return s.faults[i].At < s.faults[j].At
	})
}

// applyFaults fires every fault due at the current subframe, serially and
// in schedule order (the chaos phase stays deterministic for any worker
// count: it runs before the parallel phases of the Step).
func (s *Sim) applyFaults() {
	for len(s.faults) > 0 && s.faults[0].At <= s.sf {
		f := s.faults[0]
		s.faults = s.faults[1:]
		switch f.Kind {
		case FaultLinkCut:
			s.CutLink(f.ENB)
		case FaultLinkRestore:
			s.RestoreLink(f.ENB)
		case FaultAgentRestart:
			s.RestartAgent(f.ENB)
		case FaultNetemSet:
			s.SetLinkNetem(f.ENB, f.ToMaster, f.ToAgent)
		case FaultAgentStall:
			s.StallAgent(f.ENB)
		case FaultAgentResume:
			s.ResumeAgent(f.ENB)
		}
	}
}

// wakeNode cancels a node's sleep and syncs its eNodeB clock to the
// current subframe, so state mutations from outside the node (faults,
// handovers) observe and produce exactly the state the non-skipping
// engine would have. The node runs the data phase of this TTI (or of the
// next Step, between Steps) and re-proves its wake there.
func (s *Sim) wakeNode(n *Node) {
	s.rouse(n)
	s.syncNode(n)
}

// CutLink blackholes the control channel of one eNodeB in both directions
// and drops everything in flight. No-op without an agent session.
func (s *Sim) CutLink(enb lte.ENBID) {
	n := s.byENB[enb]
	if n == nil || n.aEp == nil {
		return
	}
	s.wakeNode(n)
	n.aEp.SetDown(true)
	n.mEp.SetDown(true)
	n.aEp.DropInflight()
	n.mEp.DropInflight()
}

// RestoreLink re-enables a cut control channel and redials: the old
// master-side session is closed (it may already be heartbeat-closed), a
// fresh session is attached, and the agent reconnects with a bumped epoch
// — the simulated analogue of the agent supervisor's TCP redial.
func (s *Sim) RestoreLink(enb lte.ENBID) {
	n := s.byENB[enb]
	if n == nil || n.aEp == nil {
		return
	}
	s.wakeNode(n)
	n.aEp.SetDown(false)
	n.mEp.SetDown(false)
	s.reconnect(n)
}

// RestartAgent models an agent process crash and restart: volatile agent
// state is dropped (Agent.Restart), in-flight control traffic is lost with
// the dying process's connection, and the agent reconnects immediately
// with a bumped epoch. The link's up/down state is untouched: restarting
// behind a cut link leaves the new Hello retransmitting until restore.
func (s *Sim) RestartAgent(enb lte.ENBID) {
	n := s.byENB[enb]
	if n == nil || n.Agent == nil {
		return
	}
	s.wakeNode(n)
	// A restart unwedges a stalled process: the supervisor replaced it.
	// The backlog held by the wedged incarnation dies with it.
	if n.stalled {
		n.stalled = false
		n.Agent.SetStalled(false)
	}
	for _, m := range n.stallQ {
		m.Release()
	}
	n.stallQ = n.stallQ[:0]
	n.Agent.Restart()
	if n.aEp == nil {
		return
	}
	n.aEp.DropInflight()
	n.mEp.DropInflight()
	s.reconnect(n)
}

// SetLinkNetem re-impairs the node's live control channel, per direction
// (a nil direction is left untouched) — the simulated `tc qdisc change`
// used by the netem_set fault kind.
func (s *Sim) SetLinkNetem(enb lte.ENBID, toMaster, toAgent *transport.Netem) {
	n := s.byENB[enb]
	if n == nil || n.aEp == nil {
		return
	}
	s.wakeNode(n)
	if toMaster != nil {
		n.aEp.SetNetem(*toMaster)
	}
	if toAgent != nil {
		n.mEp.SetNetem(*toAgent)
	}
}

// StallAgent wedges the node's agent control loop: the process stays alive
// at the transport (echoes still answered, TCP not reset) but stops
// stepping — no reports, no command processing. Inbound messages are held
// and applied in order on ResumeAgent. The eNodeB data plane keeps
// running. No-op without an agent.
func (s *Sim) StallAgent(enb lte.ENBID) {
	n := s.byENB[enb]
	if n == nil || n.Agent == nil {
		return
	}
	s.wakeNode(n)
	n.stalled = true
	n.Agent.SetStalled(true)
}

// ResumeAgent unwedges a stalled agent: the held backlog is delivered in
// arrival order, then normal processing resumes. No-op when not stalled.
func (s *Sim) ResumeAgent(enb lte.ENBID) {
	n := s.byENB[enb]
	if n == nil || n.Agent == nil || !n.stalled {
		return
	}
	s.wakeNode(n)
	n.stalled = false
	n.Agent.SetStalled(false)
	for _, m := range n.stallQ {
		n.Agent.Deliver(m)
		m.Release()
	}
	n.stallQ = n.stallQ[:0]
}

// reconnect attaches a fresh master-side session for the node and
// re-Connects its agent (epoch bump, new Hello, master-pulled resync).
func (s *Sim) reconnect(n *Node) {
	if s.Master == nil || n.Agent == nil {
		return
	}
	if n.session != nil {
		n.session.Close()
	}
	n.session = s.Master.HandleAgentSession(n.mEp.Send)
	n.Agent.Connect(n.aEp.Send)
}

// Step advances the world by one TTI: the phases below run in the fixed
// documented order, each parallel across eNodeBs with a barrier before
// the next.
//
// Idle fast-forward rides on top of the phases without changing them:
// the injection and data phases run only over the awake set, so a node
// whose wake proof lies in the future costs nothing (its traffic
// generators provably emit nothing and its eNodeB provably does no
// observable work), while its control endpoints keep advancing normally.
// The wake calendar returns a sleeper at the start of the Step its wake
// is due. Anything that invalidates the proof mid-TTI — an arriving
// control message, a cross-eNodeB spill, a fault, a handover — wakes the
// node, and the data phase fast-forwards its lagging eNodeB clock before
// stepping. After the data phase one serial pass over that TTI's awake
// nodes files each node whose new wake lies beyond the next subframe.
// Every sleep decision is a pure function of node-owned state, so results
// stay bit-for-bit identical for every worker count and with the skipping
// disabled (Config.NoFastForward).
func (s *Sim) Step() {
	// 0. Due sleepers rejoin the awake set; failure injection (serial;
	// see applyFaults) wakes its targets.
	s.cal.popDue(s.sf, s.awake)
	s.applyFaults()

	// 1. Traffic injection.
	s.run = s.awake.appendTo(s.run[:0])
	s.forEach(s.run, (*Sim).injectTraffic)
	s.drainSpill()

	// 2. Control plane: agent->master deliveries, master cycle,
	// master->agent deliveries. These legs run for sleeping nodes too —
	// the endpoint clocks must advance every TTI so delivery timestamps
	// match the non-skipping engine — and they are nearly free when
	// nothing is in flight.
	if s.Master != nil {
		s.forEach(s.linked, (*Sim).deliverToMaster)
		s.barrier("agent->master")
		// The master cycle itself is one phase on one goroutine; its
		// RIB-updater slot fans out internally (controller.Options.Workers).
		s.Master.Tick()
		s.forEach(s.linked, (*Sim).deliverToAgent)
		s.barrier("master->agent")
		// Handover barrier: commanded UE migrations move whole UE
		// contexts across eNodeB shards, serially and IMSI-ordered.
		s.applyHandovers()
	}

	// 3. Data plane, over the awake set as the earlier phases left it.
	s.run = s.awake.appendTo(s.run[:0])
	s.forEach(s.run, (*Sim).stepNode)
	if !s.noFF {
		s.fileSleepers()
	}
	s.sf++
}

// deliverToMaster is the agent->master leg for one node.
func (s *Sim) deliverToMaster(n *Node) {
	n.mBatch = n.mBatch[:0]
	if err := n.mEp.AdvanceInto(s.sf, &n.mBatch); err != nil {
		n.phaseErr = err
		return
	}
	// Ownership moves to the master, which releases each message back to
	// the protocol free lists once the RIB updater has applied it.
	n.session.Deliver(n.mBatch...)
}

// deliverToAgent is the master->agent leg for one node.
func (s *Sim) deliverToAgent(n *Node) {
	n.aBatch = n.aBatch[:0]
	if err := n.aEp.AdvanceInto(s.sf, &n.aBatch); err != nil {
		n.phaseErr = err
		return
	}
	if len(n.aBatch) == 0 {
		return
	}
	// An arriving message wakes a sleeping node (the barrier moves it into
	// the awake set). The agent's handlers read the eNodeB clock, so sync
	// it first.
	n.woken = true
	s.syncNode(n)
	for _, m := range n.aBatch {
		// A wedged control loop (agent_stall) answers liveness probes —
		// the I/O thread is alive — but everything else waits in the
		// backlog until the resume fault.
		if n.stalled && m.Payload.Kind() != protocol.KindEcho {
			n.stallQ = append(n.stallQ, m)
			continue
		}
		n.Agent.Deliver(m)
		// The agent copies what it keeps (subscriptions, alloc vectors,
		// queued handover commands), so the decoded message recycles
		// immediately.
		m.Release()
	}
}

// stepNode is the data phase for one awake node: its eNodeB subframe,
// then (with fast-forward on) a fresh wake proof.
func (s *Sim) stepNode(n *Node) {
	s.syncNode(n)
	n.ENB.Step()
	if !s.noFF {
		n.wake = s.computeWake(n, s.sf+1)
	}
}

// fileSleepers is the serial pass after the data phase: every node of the
// TTI whose wake lies beyond the next subframe leaves the awake set and,
// unless it never wakes on its own, is filed in the calendar.
func (s *Sim) fileSleepers() {
	next := s.sf + 1
	for _, i := range s.run {
		if w := s.Nodes[i].wake; w > next {
			s.awake.remove(i)
			if w != lte.NeverSF {
				s.cal.push(i, w)
			}
		}
	}
}

// computeWake returns the node's next subframe with provable own work:
// the minimum of the eNodeB's wake (backlog, attach supervision,
// measurement sweeps, channel variation), the agent's next control tick,
// and every traffic generator's next activity. Nodes carrying a generator
// that cannot prove idleness (no ue.Idler) never sleep.
func (s *Sim) computeWake(n *Node, from lte.Subframe) lte.Subframe {
	wake := n.ENB.NextWake(from)
	if wake <= from {
		return from
	}
	if n.Agent != nil {
		if w := n.Agent.NextWork(from); w < wake {
			wake = w
		}
		if wake <= from {
			return from
		}
	}
	for i := range n.specs {
		if w := genWake(n.specs[i].DL, n.genSF); w < wake {
			wake = w
		}
		if w := genWake(n.specs[i].UL, n.genSF); w < wake {
			wake = w
		}
		if wake <= from {
			return from
		}
	}
	return wake
}

// genWake is one generator's contribution to the wake computation. from
// is the generator's own position (the node's genSF), which may trail the
// simulation clock; NextActive returns an absolute subframe either way.
func genWake(g ue.Generator, from lte.Subframe) lte.Subframe {
	if g == nil {
		return lte.NeverSF
	}
	id, ok := g.(ue.Idler)
	if !ok {
		return 0 // unknown generator: the node can never be skipped
	}
	return id.NextActive(from)
}

// Run advances the simulation by a number of TTIs.
func (s *Sim) Run(ttis int) {
	for i := 0; i < ttis; i++ {
		s.Step()
	}
}

// RunSeconds advances by simulated seconds.
func (s *Sim) RunSeconds(sec float64) { s.Run(int(sec * lte.TTIsPerSecond)) }

// WaitAttached runs until every UE has completed attachment or the TTI
// budget is exhausted, reporting success.
func (s *Sim) WaitAttached(maxTTIs int) bool {
	for i := 0; i < maxTTIs; i++ {
		if s.allAttached() {
			return true
		}
		s.Step()
	}
	return s.allAttached()
}

func (s *Sim) allAttached() bool {
	for _, n := range s.Nodes {
		for _, rnti := range n.RNTIs {
			if !n.ENB.Connected(rnti) {
				return false
			}
		}
	}
	return true
}

// syncNode fast-forwards a node's lagging eNodeB clock to the present, so
// a woken node steps, and read accessors observe, exactly the state the
// non-skipping engine would. FastForward composes with later wake-ups, so
// a mid-sleep sync is safe.
func (s *Sim) syncNode(n *Node) {
	if n.ENB.Now() < s.sf {
		n.ENB.FastForward(s.sf)
	}
}

// Report returns the UE report for eNodeB index i, UE index j. Note that
// handovers migrate UEs between nodes; mobile scenarios should prefer
// ReportByIMSI.
func (s *Sim) Report(i, j int) enb.UEReport {
	n := s.Nodes[i]
	s.syncNode(n)
	r, _ := n.ENB.UEReport(n.RNTIs[j])
	return r
}

// ReportByIMSI returns a subscriber's report wherever it is currently
// attached, following handovers via the EPC bearer table.
func (s *Sim) ReportByIMSI(imsi uint64) (enb.UEReport, lte.ENBID, bool) {
	b, ok := s.EPC.Bearer(imsi)
	if !ok {
		return enb.UEReport{}, 0, false
	}
	n := s.byENB[b.ENB]
	if n == nil {
		return enb.UEReport{}, 0, false
	}
	s.syncNode(n)
	r, ok := n.ENB.UEReport(b.RNTI)
	return r, b.ENB, ok
}

// Handovers returns the log of executed UE migrations, in execution order.
func (s *Sim) Handovers() []HandoverRecord {
	return append([]HandoverRecord(nil), s.hoLog...)
}

// DeliveredDL sums downlink goodput bytes across all UEs of a node.
func (s *Sim) DeliveredDL(i int) uint64 {
	var sum uint64
	n := s.Nodes[i]
	s.syncNode(n)
	for _, rnti := range n.RNTIs {
		if r, ok := n.ENB.UEReport(rnti); ok {
			sum += r.DLDelivered
		}
	}
	return sum
}
