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
// The engine is serial: one goroutine steps every eNodeB of a Sim, one
// at a time, so its eNodeBs share one scheduler working set (enb.Workset)
// and an idle eNodeB holds none. The same world stepped twice gives the
// same result to the bit — see TestDeterminism.
//
// A TTI costs its awake eNodeBs, not its attached ones. The awake set, a
// bitset over node indices, names the nodes that run the injection and
// data phases; both phases walk it in ascending index order. A node whose
// wake proof (Node.wake) lies beyond the next subframe leaves the set
// after the data phase and is filed in the wake calendar, an indexed
// min-heap keyed (wake, node index) that returns it at the start of the
// Step it is due. The control phase still visits every node with a
// control channel, because endpoint clocks advance every TTI. Faults,
// handovers, cross-eNodeB injections and delivered control messages wake
// a node early: they set its bit and drop its calendar entry.
package sim

import (
	"fmt"
	"sort"

	"flexran/internal/agent"
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
	// UEs are added at simulation start. The engine owns the slice from
	// then on: handovers reorder it and remove UEs from it, and a node
	// never appends into the caller's array past its length.
	UEs []UESpec
	// AttachTimeoutTTI overrides the eNodeB attach deadline.
	AttachTimeoutTTI int
}

// Config declares a scenario.
type Config struct {
	// Master enables a master controller with these options; nil runs
	// the eNodeBs standalone (the "vanilla" mode of Fig. 6).
	Master *controller.Options
	// Workers is the size of the worker pool the engine no longer has.
	//
	// Deprecated: ignored; kept for bench/ until ROADMAP item B.
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
	// link is the node's control channel to the master, nil for a node
	// without one: a node pays for link state only when it has a link.
	link *link
	// sim is the engine stepping the node, nil for a NewNode: Inject wakes
	// the target of a foreign bearer through it.
	sim *Sim

	RNTIs []lte.RNTI // by UESpec order
	specs []UESpec
	// bearers holds each UE's EPC bearer, by UESpec order, so per-TTI
	// downlink injection reaches the serving eNodeB without a lookup.
	bearers []*epc.Bearer

	// idx is the node's position in Sim.Nodes: its bit in the awake set
	// and its key in the wake calendar.
	idx int32

	// wake is the node's next subframe with provable own work (eNodeB
	// backlog/measurements, agent control ticks, or traffic-generator
	// activity), recomputed after every executed Step. A wake beyond the
	// next subframe takes the node out of the awake set and files it in
	// the wake calendar under wake (lte.NeverSF files nothing: only an
	// early wake returns such a node); an arriving control message, a
	// cross-eNodeB injection, a handover or a fault wakes it early.
	wake lte.Subframe
	// genSF is the subframe the node's traffic generators expect next:
	// it trails the simulation clock while the node sleeps, and the gap
	// is replayed through ue.Idler.Skip before the next injection.
	genSF lte.Subframe
}

// link is the state of one node's control channel to the master: the two
// simulated endpoints, the master-side session, and what a stalled agent
// holds between phases.
type link struct {
	aEp     *transport.SimEndpoint // agent side of the control channel
	mEp     *transport.SimEndpoint // master side
	session *controller.AgentSession
	// stallQ holds what arrives for a stalled agent (FaultAgentStall)
	// other than echoes: applied in arrival order on resume, dropped by a
	// restart.
	stallQ []*protocol.Message
}

// hoJob is one commanded handover: the command and the node whose agent
// received it.
type hoJob struct {
	cmd protocol.HandoverCommand
	src *Node
}

// AgentMeter returns the agent-to-master signaling meter (Fig. 7a).
func (n *Node) AgentMeter() *metrics.Meter {
	if n.link == nil {
		return metrics.NewMeter()
	}
	return n.link.aEp.Meter()
}

// MasterMeter returns the master-to-agent signaling meter (Fig. 7b).
func (n *Node) MasterMeter() *metrics.Meter {
	if n.link == nil {
		return metrics.NewMeter()
	}
	return n.link.mEp.Meter()
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

	byENB  map[lte.ENBID]*Node
	hoLog  []HandoverRecord
	faults []Fault // sorted by At, stable
	sf     lte.Subframe
	noFF   bool
	// ws is the scheduler working set every eNodeB of the Sim shares.
	ws enb.Workset

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
	// batch is the control phase's delivery scratch, shared by both legs
	// of every link: one leg runs at a time, and neither the session nor
	// the agent keeps the slice.
	batch []*protocol.Message
	// hoQ collects the handover commands agents receive, in arrival order;
	// applyHandovers executes them after the control phase, ordered by
	// IMSI, so no migration lands in the middle of another node's
	// deliveries.
	hoQ []hoJob
}

// NewNode builds one eNodeB from its spec with an EPC of its own: the node
// a wall-clock agent loop steps. It has no control channel (the loop dials
// one; ToMaster and ToAgent are ignored) and no handover executor, so its
// agent rejects handover commands, as in a Sim without a master.
func NewNode(spec ENBSpec) (*Node, error) {
	n := newNode(spec, nil)
	if err := n.addUEs(epc.New()); err != nil {
		return nil, err
	}
	return n, nil
}

// newNode builds a spec's eNodeB on scheduler working set ws (nil for one
// of its own) and, when the spec asks for one, its agent. addUEs completes
// the node; a caller that links the agent does so in between, so the
// Hello and the UEs' random-access events ride the link. The UE list is
// capped at its length: a handover's append onto it then reallocates
// rather than write into a caller array that another node may slice.
func newNode(spec ENBSpec, ws *enb.Workset) *Node {
	e := enb.New(enb.Config{
		ID:               spec.ID,
		Cells:            spec.Cells,
		Seed:             spec.Seed,
		AttachTimeoutTTI: spec.AttachTimeoutTTI,
		Workset:          ws,
	})
	ues := len(spec.UEs)
	n := &Node{ENB: e, specs: spec.UEs[:ues:ues]}
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
	s := &Sim{EPC: epc.New(), byENB: map[lte.ENBID]*Node{}, noFF: cfg.NoFastForward}
	if cfg.Master != nil {
		s.Master = controller.NewMaster(*cfg.Master)
	}
	for _, spec := range enbs {
		n := newNode(spec, &s.ws)
		n.idx = int32(len(s.Nodes))
		n.sim = s
		if n.Agent != nil && s.Master != nil {
			l := &link{}
			n.link = l
			// Handover commands, which only the master sends, are queued
			// and executed after the control phase (deterministic order).
			n.Agent.SetHandoverExecutor(func(cmd *protocol.HandoverCommand) error {
				s.hoQ = append(s.hoQ, hoJob{cmd: *cmd, src: n})
				return nil
			})
			l.aEp, l.mEp = transport.NewSimPair(spec.ToMaster, spec.ToAgent)
			l.session = s.Master.HandleAgentSession(l.mEp.Send)
			n.Agent.Connect(l.aEp.Send)
			s.linked = append(s.linked, n.idx)
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

// rouse puts a node in the awake set for the rest of the TTI, taking it
// out of the wake calendar.
func (s *Sim) rouse(n *Node) {
	s.awake.add(n.idx)
	s.cal.remove(n.idx)
}

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
				// one, which now has backlog to serve this very
				// subframe: wake it if it sleeps.
				br := n.bearers[i]
				if br.ENB != id && n.sim != nil {
					if tn := n.sim.byENB[br.ENB]; tn != nil {
						n.sim.rouse(tn)
					}
				}
				br.Downlink(b) //nolint:errcheck // a detached bearer takes no traffic
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

// applyHandovers executes the queued UE migrations, then empties the
// queue. It runs between the control and data planes, with commands
// ordered by IMSI.
func (s *Sim) applyHandovers() {
	jobs := s.hoQ
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
	s.hoQ = jobs[:0]
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

// InjectFaults schedules failure-injection events: it is the one way to
// fault a simulation. The schedule may be extended at any time; events whose
// At already passed fire at the start of the next Step, so a fault at Now()
// takes effect in the next Step. The link kinds need a control channel to a
// master; the agent kinds need only an agent.
func (s *Sim) InjectFaults(faults ...Fault) {
	s.faults = append(s.faults, faults...)
	sort.SliceStable(s.faults, func(i, j int) bool {
		return s.faults[i].At < s.faults[j].At
	})
}

// applyFaults fires every fault due at the current subframe, in schedule
// order, before the phases of the Step.
func (s *Sim) applyFaults() {
	for len(s.faults) > 0 && s.faults[0].At <= s.sf {
		f := s.faults[0]
		s.faults = s.faults[1:]
		s.applyFault(f)
	}
}

// applyFault fires one fault. It is a no-op on an unknown or agent-less
// eNodeB, for a link kind on a node without a control channel, and for a
// resume of an agent that is not stalled.
func (s *Sim) applyFault(f Fault) {
	n := s.byENB[f.ENB]
	if n == nil || n.Agent == nil {
		return
	}
	l := n.link
	switch f.Kind {
	case FaultLinkCut, FaultLinkRestore, FaultNetemSet:
		if l == nil {
			return
		}
	case FaultAgentRestart, FaultAgentStall: // need only the agent
	case FaultAgentResume:
		if !n.Agent.Stalled() {
			return
		}
	default: // not a fault kind
		return
	}
	s.wakeNode(n)
	switch f.Kind {
	case FaultLinkCut:
		// Blackhole both directions and drop everything in flight.
		l.aEp.SetDown(true)
		l.mEp.SetDown(true)
		l.aEp.DropInflight()
		l.mEp.DropInflight()
	case FaultLinkRestore:
		// Redial: the old master-side session is closed (it may already be
		// heartbeat-closed) and the agent reconnects with a bumped epoch,
		// the simulated analogue of the agent supervisor's TCP redial.
		l.aEp.SetDown(false)
		l.mEp.SetDown(false)
		s.reconnect(l, n.Agent)
	case FaultAgentRestart:
		// The supervisor replaced a possibly wedged process: the backlog
		// held by the old incarnation dies with it, and Agent.Restart
		// clears the stall. The link's up/down state is untouched, so a
		// restart behind a cut link leaves the new Hello retransmitting
		// until restore. Only a linked agent can hold a backlog.
		if l != nil {
			for _, m := range l.stallQ {
				m.Release()
			}
			l.stallQ = l.stallQ[:0]
		}
		n.Agent.Restart()
		if l == nil {
			return
		}
		l.aEp.DropInflight()
		l.mEp.DropInflight()
		s.reconnect(l, n.Agent)
	case FaultNetemSet:
		if f.ToMaster != nil {
			l.aEp.SetNetem(*f.ToMaster)
		}
		if f.ToAgent != nil {
			l.mEp.SetNetem(*f.ToAgent)
		}
	case FaultAgentStall:
		n.Agent.SetStalled(true)
	case FaultAgentResume:
		n.Agent.SetStalled(false)
		if l == nil {
			return
		}
		for _, m := range l.stallQ {
			n.Agent.Deliver(m)
			m.Release()
		}
		l.stallQ = l.stallQ[:0]
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

// reconnect closes a link's master-side session, attaches a fresh one and
// re-Connects the agent (epoch bump, new Hello, master-pulled resync).
func (s *Sim) reconnect(l *link, a *agent.Agent) {
	l.session.Close()
	l.session = s.Master.HandleAgentSession(l.mEp.Send)
	a.Connect(l.aEp.Send)
}

// Step advances the world by one TTI: the phases below run in the fixed
// documented order, each over the eNodeBs in ascending index order.
//
// Idle fast-forward rides on top of the phases without changing them:
// the injection and data phases run only over the awake set, so a node
// whose wake proof lies in the future costs nothing (its traffic
// generators provably emit nothing and its eNodeB provably does no
// observable work), while its control endpoints keep advancing normally.
// The wake calendar returns a sleeper at the start of the Step its wake
// is due. Anything that invalidates the proof mid-TTI — an arriving
// control message, a cross-eNodeB injection, a fault, a handover — wakes the
// node, and the data phase fast-forwards its lagging eNodeB clock before
// stepping. After the data phase one serial pass over that TTI's awake
// nodes files each node whose new wake lies beyond the next subframe.
// Every sleep decision is a pure function of node-owned state, so results
// stay bit-for-bit identical with the skipping disabled
// (Config.NoFastForward).
func (s *Sim) Step() {
	// 0. Due sleepers rejoin the awake set; failure injection (see
	// applyFaults) wakes its targets.
	s.cal.popDue(s.sf, s.awake)
	s.applyFaults()

	// 1. Traffic injection.
	s.run = s.awake.appendTo(s.run[:0])
	for _, i := range s.run {
		s.Nodes[i].Inject(s.sf)
	}

	// 2. Control plane: agent->master deliveries, master cycle,
	// master->agent deliveries. These legs run for sleeping nodes too —
	// the endpoint clocks must advance every TTI so delivery timestamps
	// match the non-skipping engine — and they are nearly free when
	// nothing is in flight.
	if s.Master != nil {
		for _, i := range s.linked {
			s.deliverToMaster(s.Nodes[i])
		}
		s.Master.Tick()
		for _, i := range s.linked {
			s.deliverToAgent(s.Nodes[i])
		}
		// Commanded UE migrations move whole UE contexts across eNodeBs,
		// IMSI-ordered.
		s.applyHandovers()
	}

	// 3. Data plane, over the awake set as the earlier phases left it.
	s.run = s.awake.appendTo(s.run[:0])
	for _, i := range s.run {
		s.stepNode(s.Nodes[i])
	}
	if !s.noFF {
		s.fileSleepers()
	}
	s.sf++
}

// deliverToMaster is the agent->master leg for one node.
func (s *Sim) deliverToMaster(n *Node) {
	l := n.link
	s.batch = s.batch[:0]
	l.mEp.AdvanceInto(s.sf, &s.batch)
	// Ownership moves to the master, which releases each message back to
	// the protocol free lists once the RIB updater has applied it.
	l.session.Deliver(s.batch...)
}

// deliverToAgent is the master->agent leg for one node.
func (s *Sim) deliverToAgent(n *Node) {
	l := n.link
	s.batch = s.batch[:0]
	l.aEp.AdvanceInto(s.sf, &s.batch)
	if len(s.batch) == 0 {
		return
	}
	// An arriving message wakes a sleeping node. The agent's handlers read
	// the eNodeB clock, so sync it first.
	s.wakeNode(n)
	// A wedged control loop (agent_stall) answers liveness probes — the
	// I/O thread is alive — but everything else waits in stallQ until the
	// resume fault (or dies with an agent restart).
	stalled := n.Agent.Stalled()
	for _, m := range s.batch {
		if stalled && m.Payload.Kind() != protocol.KindEcho {
			l.stallQ = append(l.stallQ, m)
			continue
		}
		n.Agent.Deliver(m)
		// The agent copies what it keeps (subscriptions, alloc vectors,
		// queued handover commands), so the delivered message recycles
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

// fileSleepers is the pass after the data phase: every node of the
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

// PingPongs counts the handovers that return a UE to the eNodeB it left
// at most window subframes earlier.
func (s *Sim) PingPongs(window lte.Subframe) int {
	n := 0
	last := map[uint64]HandoverRecord{}
	for _, h := range s.hoLog {
		if prev, ok := last[h.IMSI]; ok && h.To == prev.From && h.SF-prev.SF <= window {
			n++
		}
		last[h.IMSI] = h
	}
	return n
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
