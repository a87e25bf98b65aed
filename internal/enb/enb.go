// Package enb simulates the LTE eNodeB data plane — the role OpenAirInterface
// plays in the original FlexRAN implementation (run in emulation mode with
// PHY abstraction, exactly as the paper's scalability evaluation does).
//
// The simulator executes one subframe (TTI) at a time: it refreshes channel
// state, runs the attach state machine, invokes the configured scheduling
// hooks, and applies the resulting allocations to per-UE RLC transmission
// queues with HARQ-style error/retransmission behaviour derived from the
// lte.BLER model.
//
// The essential design point mirrors the paper's control/data separation:
// the data plane performs only *actions* (applying scheduling decisions,
// delivering transport blocks, reporting state); every *decision* enters
// through the Hooks structure. A vanilla eNodeB installs local default
// schedulers; a FlexRAN eNodeB hands the hooks to an agent.
//
// UE state is held as one hot record per slot plus a cold record: the
// fields every TTI touches (CQI, queues, averaging, HARQ bookkeeping) sit
// together in a dense array of small records indexed by a compact slot id,
// while the rarely-touched remainder (identity, attach supervision) sits
// in a parallel cold array. Slots are recycled through a free list on
// detach/handover; a dense RNTI-indexed table (RNTI→slot), windowed to the
// RNTIs live UEs hold, provides O(1) lookups without per-UE heap objects.
package enb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/rng"
	"flexran/internal/sched"
)

// Defaults for the attach procedure and queue bounds.
const (
	// DefaultAttachSignalingBytes is the volume of downlink RRC signaling
	// that must be delivered to complete network attachment.
	DefaultAttachSignalingBytes = 300
	// DefaultAttachTimeoutTTI is the attach deadline; if the signaling
	// cannot be scheduled in time the attach restarts. A control plane
	// that never schedules (e.g. remote decisions always missing their
	// deadline, Fig. 9's lower triangle) therefore keeps the UE detached.
	DefaultAttachTimeoutTTI = 2000
	// DefaultDLQueueCap bounds each UE's RLC transmission queue; excess
	// downlink arrivals are dropped (UDP-like behaviour under overload).
	DefaultDLQueueCap = 3 << 20
	// DefaultMeasPeriodTTI is how often neighbour-cell measurements are
	// collected for UEs whose channel model supports them (the L3
	// measurement period feeding A3 handover evaluation).
	DefaultMeasPeriodTTI = 10
	// activityWindow is how many past subframes of per-cell transmission
	// activity are retained (for interference coupling between eNBs):
	// Active is asked about the current subframe and the one before it.
	activityWindow = 2
)

// UEState is the attach state machine.
type UEState uint8

// UE states.
const (
	// StateAttaching: RRC signaling pending; data is not delivered yet.
	StateAttaching UEState = iota
	// StateConnected: attach complete, data flows.
	StateConnected
	// StateDetached: removed from the eNodeB.
	StateDetached
)

func (s UEState) String() string {
	switch s {
	case StateAttaching:
		return "attaching"
	case StateConnected:
		return "connected"
	case StateDetached:
		return "detached"
	}
	return "invalid"
}

// UEParams configures a UE added to the eNodeB.
type UEParams struct {
	IMSI    uint64
	Cell    lte.CellID
	Channel radio.Model
	// Group labels the UE for quota-based scheduling (operator/tier).
	Group int
}

// hotState is the hot record of one UE slot: every field the subframe
// loop reads or writes per UE, in one 72-byte record. ENB.hot holds one
// per slot, contiguous per eNodeB, so the TTI sweep walks a dense array
// instead of chasing map buckets and per-UE heap objects. cell is a copy
// of the cold record's serving cell, set when the UE enters the slot, so
// the per-cell scheduling filter never leaves this array. steady and
// cqiHeld let the channel refresh skip a UE whose channel promises a
// constant CQI (radio.ConstantCQI, the promise fast-forward rests on) once
// cqi holds it. The three fit in what would otherwise be padding.
//
// Ownership contract: the records are owned by the eNodeB's
// single-threaded driver (simulation engine or agent runtime); slot ids are
// private and never escape the package. A freed slot's records are zeroed
// before it returns to the free list, so a recycled slot never leaks the
// previous occupant's CQI, queues or averages into a new UE.
//
// A hook (OnUEEvent, OnSubframe, OnMeasurement) may add a UE, which can
// move ENB.hot: a *hotState held across a hook call goes stale, so code
// indexes ENB.hot again after every call.
type hotState struct {
	rnti       lte.RNTI
	state      UEState
	cqi        lte.CQI
	retxDL     int32 // consecutive HARQ failures (chase combining state)
	retxUL     int32
	ttiDL      int32 // per-TTI delivery accounting (reset each Step)
	ttiUL      int32
	cell       lte.CellID
	steady     bool    // the channel's CQI is constant (set when the UE enters the slot)
	cqiHeld    bool    // cqi holds a steady channel's CQI: the refresh skips the UE
	dlQueue    int     // RLC transmission queue, bytes
	ulQueue    int     // buffer status, bytes
	sigPending int     // pending attach signaling, bytes
	avgDL      float64 // PF average rate (EWMA), kbit/s
	avgUL      float64
	lastSched  lte.Subframe
}

// coldState is the rarely-touched remainder of a UE slot: identity and
// channel binding, attach supervision, and cumulative counters that only
// move when the UE is actually scheduled.
type coldState struct {
	params      UEParams
	deadline    lte.Subframe // attach deadline
	dlDelivered uint64       // cumulative goodput, bytes
	ulDelivered uint64
	dlDropped   uint64 // queue-cap drops
	harqRetx    uint32 // cumulative retransmissions
	attempts    int32  // attach attempts
}

// cell is one carrier of the eNodeB.
type cell struct {
	cfg  protocol.CellConfig
	prbs int
	// activity[sf % activityWindow] is the number of PRBs transmitted in
	// that subframe (0 = silent), with the subframe recorded to detect
	// staleness.
	activity   [activityWindow]int
	activitySF [activityWindow]lte.Subframe
	usedPRB    int // last subframe's allocation total (for reports)
}

// Hooks is the control attachment surface of the data plane: the FlexRAN
// separation point. DLSchedule/ULSchedule make the per-TTI decisions;
// OnUEEvent and OnSubframe feed the control plane's event stream.
type Hooks struct {
	DLSchedule func(cellID lte.CellID, in sched.Input) []sched.Alloc
	ULSchedule func(cellID lte.CellID, in sched.Input) []sched.Alloc
	OnUEEvent  func(ev protocol.UEEventType, rnti lte.RNTI, cellID lte.CellID)
	OnSubframe func(sf lte.Subframe)
	// OnMeasurement receives a connected UE's L3 measurements every
	// DefaultMeasPeriodTTI subframes (only for UEs whose channel model
	// implements radio.NeighborMeasurer). The agent's RRC module runs A3
	// evaluation on this stream. The measurements carry RSRP only: RSRQ is
	// left 0 and the neighbours come in site order, so a hook that reports
	// them asks ENB.RSSIdBm for the RSRQ and ranks the neighbours itself
	// (radio.RankNeighbors). neighbors is the Workset's measurement
	// scratch: the hook may reorder and rewrite it, but it is valid only
	// during the call.
	OnMeasurement func(rnti lte.RNTI, cellID lte.CellID, serving radio.Meas, neighbors []radio.Meas)
}

// noHooks is the one Hooks value every eNodeB without a control plane
// points at; SetHooks gives an eNodeB a Hooks of its own.
var noHooks Hooks

// Workset is the scheduler working set of the eNodeBs that share it: the
// UE snapshot behind sched.Input.UEs, the neighbour list behind
// OnMeasurement and the default round robin's index and result slices.
// Only one eNodeB of a Workset may step at a time, and what a call hands
// out aliases the set: in.UEs and OnMeasurement's neighbours are valid
// until the next scheduling or measurement call of any eNodeB sharing it.
// A simulation engine holds one for all of its eNodeBs, so an idle eNodeB
// pays for no working set; an eNodeB built without one owns its own. The
// zero value is ready to use.
type Workset struct {
	ues  []sched.UEInfo
	meas []radio.Meas
	rr   sched.Workset
}

// Config configures an eNodeB.
type Config struct {
	ID    lte.ENBID
	Cells []protocol.CellConfig
	// Seed drives the HARQ error draws (deterministic).
	Seed int64
	// AttachSignalingBytes / AttachTimeoutTTI override the defaults.
	AttachSignalingBytes int
	AttachTimeoutTTI     int
	// DLQueueCap overrides the RLC queue bound.
	DLQueueCap int
	// Workset is the scheduler working set to share with other eNodeBs
	// stepped on the same goroutine; nil gives the eNodeB its own.
	Workset *Workset
}

// DefaultCell returns the paper's evaluation cell: FDD, 10 MHz, TM1, band 5.
func DefaultCell(id lte.CellID) protocol.CellConfig {
	return protocol.CellConfig{
		Cell: id, Bandwidth: lte.BW10MHz, Duplex: lte.FDD,
		TxMode: 1, Antennas: 1, Band: 5,
	}
}

// ENB is the simulated eNodeB data plane. It is not safe for concurrent
// use: the owner (simulation loop or agent runtime) serializes access.
type ENB struct {
	// id and the attach and queue limits are the Config values read after
	// New, defaults filled in and capped at math.MaxInt32 (attachTimeout in
	// TTIs); the seed and the cell list are consumed there.
	id             lte.ENBID
	attachSigBytes int32
	attachTimeout  int32
	dlQueueCap     int32
	// cellList is the cells in ascending id order, fixed at construction.
	// An eNodeB carries one to a few cells, so a lookup by id walks it;
	// *cell pointers into it stay valid because it never grows after New.
	cellList []cell

	hot  []hotState // by slot
	cold []coldState
	// order is the live slots in ascending RNTI order, kept sorted
	// incrementally (insertion keeps the invariant; removal preserves it),
	// so per-TTI sweeps never re-sort and never touch a map.
	order []int32
	// slotOf maps RNTI→slot by direct index over a window of the C-RNTI
	// ring (FirstUERNTI follows 0xFFFF): entry i holds the slot+1 of the
	// RNTI i places up the ring from slotBase, 0 for one no live UE holds.
	// RemoveUE trims zeros off both ends, so the window spans the live
	// UEs' RNTIs rather than every RNTI ever handed out; read it through
	// lookup, which bounds-checks both ends.
	slotOf []int32
	free   []int32 // recycled slots (fully zeroed)

	// unsteady counts live UEs whose channel model does not declare a
	// constant CQI; while nonzero the eNodeB can never be fast-forwarded
	// (the per-TTI CQI refresh is observable). measurers counts live UEs
	// whose channel supports L3 measurements, gating the measurement-wake
	// contribution of NextWake.
	unsteady  int32
	measurers int32
	// attaching, dlBacklog and ulBacklog count the live UEs in the attach
	// procedure, with downlink bytes queued and with uplink bytes queued.
	// They change only through recount, around every mutation of a UE's
	// state or queues, so a direction they prove empty is skipped without
	// a scan and NextWake answers without one.
	attaching int32
	dlBacklog int32
	ulBacklog int32

	nextRNTI lte.RNTI
	slotBase lte.RNTI // the RNTI of slotOf[0]
	sf       lte.Subframe
	hooks    *Hooks // &noHooks until SetHooks
	ws       *Workset
	// harq is the source of the HARQ error draws, held inline.
	harq rand.PCG
	// rot is the default round robin's rotation per direction (indexed by
	// lte.Direction), the one piece of its state an eNodeB keeps; its
	// working set is ws's. It starts at 0 on the direction's first
	// backlogged subframe and is never read once a control plane schedules
	// that direction.
	rot [2]int
}

// New builds an eNodeB with local default schedulers (round robin), i.e.
// the "vanilla OAI" configuration of the Fig. 6 comparison. A default
// keeps only its rotation on the eNodeB and schedules on the Workset, so a
// direction that never carries traffic, or that a control plane takes
// over first, costs nothing more.
func New(cfg Config) *ENB {
	cells := cfg.Cells
	if len(cells) == 0 {
		cells = []protocol.CellConfig{DefaultCell(0)}
	}
	ws := cfg.Workset
	if ws == nil {
		ws = new(Workset)
	}
	e := &ENB{
		id:             cfg.ID,
		attachSigBytes: limit(cfg.AttachSignalingBytes, DefaultAttachSignalingBytes),
		attachTimeout:  limit(cfg.AttachTimeoutTTI, DefaultAttachTimeoutTTI),
		dlQueueCap:     limit(cfg.DLQueueCap, DefaultDLQueueCap),
		cellList:       make([]cell, 0, len(cells)),
		hooks:          &noHooks,
		ws:             ws,
		harq:           rng.NewPCG(cfg.Seed + 1),
		nextRNTI:       lte.FirstUERNTI,
	}
	for _, cc := range cells {
		c := e.findCell(cc.Cell) // a repeated id keeps its last configuration
		if c == nil {
			e.cellList = append(e.cellList, cell{})
			c = &e.cellList[len(e.cellList)-1]
		}
		*c = cell{cfg: cc, prbs: cc.Bandwidth.PRBs()}
	}
	slices.SortFunc(e.cellList, func(a, b cell) int { return cmp.Compare(a.cfg.Cell, b.cfg.Cell) })
	return e
}

// limit is a Config value with its default filled in, held as an int32.
func limit(v, def int) int32 { return int32(min(cmp.Or(v, def), math.MaxInt32)) }

// ID returns the eNodeB identifier.
func (e *ENB) ID() lte.ENBID { return e.id }

// Now returns the current subframe (the next one Step will execute).
func (e *ENB) Now() lte.Subframe { return e.sf }

// Config exports the eNodeB configuration for the agent's Hello message.
func (e *ENB) Config() protocol.ENBConfig {
	out := protocol.ENBConfig{ID: e.id}
	for _, c := range e.cellList {
		out.Cells = append(out.Cells, c.cfg)
	}
	return out
}

// findCell returns the cell with the given id, or nil.
func (e *ENB) findCell(id lte.CellID) *cell {
	for i := range e.cellList {
		if c := &e.cellList[i]; c.cfg.Cell == id {
			return c
		}
	}
	return nil
}

// SetHooks installs the control plane. Passing a partially filled Hooks
// keeps the previous function for nil fields, so an agent can take over
// scheduling while leaving event routing unchanged (or vice versa).
func (e *ENB) SetHooks(h Hooks) {
	cur := *e.hooks
	if h.DLSchedule != nil {
		cur.DLSchedule = h.DLSchedule
	}
	if h.ULSchedule != nil {
		cur.ULSchedule = h.ULSchedule
	}
	if h.OnUEEvent != nil {
		cur.OnUEEvent = h.OnUEEvent
	}
	if h.OnSubframe != nil {
		cur.OnSubframe = h.OnSubframe
	}
	if h.OnMeasurement != nil {
		cur.OnMeasurement = h.OnMeasurement
	}
	e.hooks = &cur
}

// allocSlot returns a fully zeroed slot id, reusing the free list before
// growing the hot and cold arrays.
func (e *ENB) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.hot = append(e.hot, hotState{})
	e.cold = append(e.cold, coldState{})
	return int32(len(e.hot) - 1)
}

// resetSlot zeroes the hot and cold records of a slot. Called on every
// free: slot reuse after detach/handover must never leak the previous
// occupant's CQI, queues, averages or HARQ state into the next UE.
func (e *ENB) resetSlot(s int32) {
	e.hot[s], e.cold[s] = hotState{}, coldState{}
}

// trackChannel maintains the unsteady/measurers counters as UEs come and
// go (delta is +1 on add, -1 on remove) and reports whether the channel
// promises a constant CQI.
func (e *ENB) trackChannel(ch radio.Model, delta int32) (steady bool) {
	c, ok := ch.(radio.ConstantCQI)
	steady = ok && c.ConstantCQI()
	if !steady {
		e.unsteady += delta
	}
	if _, ok := ch.(radio.NeighborMeasurer); ok {
		e.measurers += delta
	}
	return steady
}

// recount adds a live slot's contribution, read from its hot record, to
// the attaching, dlBacklog and ulBacklog counts (delta +1), or takes it
// out (delta -1). Every mutation of a UE's state or queues sits between a
// -1 and a +1 call, so the counts always equal a scan of the live slots.
func (e *ENB) recount(h *hotState, delta int32) {
	if h.state == StateAttaching {
		e.attaching += delta
	}
	if h.dlQueue != 0 {
		e.dlBacklog += delta
	}
	if h.ulQueue != 0 {
		e.ulBacklog += delta
	}
}

// rntiSpan is the number of C-RNTIs: FirstUERNTI through 0xFFFF.
const rntiSpan = 1<<16 - int(lte.FirstUERNTI)

// lookup resolves an RNTI to its slot. Any value is safe to ask about —
// reserved RNTIs below FirstUERNTI, ones never handed out, ones a remote
// scheduler invented — and reads as "unknown UE".
func (e *ENB) lookup(rnti lte.RNTI) (int32, bool) {
	if rnti < lte.FirstUERNTI {
		return 0, false
	}
	i := e.tableIndex(rnti)
	if i >= len(e.slotOf) || e.slotOf[i] == 0 {
		return 0, false
	}
	return e.slotOf[i] - 1, true
}

// tableIndex returns how many places up the C-RNTI ring a C-RNTI lies
// from slotBase: its index in slotOf, when the window reaches that far.
func (e *ENB) tableIndex(rnti lte.RNTI) int {
	i := int(rnti) - int(e.slotBase)
	if i < 0 {
		i += rntiSpan
	}
	return i
}

// unbindRNTI clears a live RNTI's table entry and trims the window to the
// live entries at its ends; an emptied window is rebased at the next RNTI
// bound. Trimming the front reslices, so the dead prefix is given back the
// next time the table grows.
func (e *ENB) unbindRNTI(rnti lte.RNTI) {
	t := e.slotOf
	t[e.tableIndex(rnti)] = 0
	hi := len(t)
	for hi > 0 && t[hi-1] == 0 {
		hi--
	}
	lo := 0
	for lo < hi && t[lo] == 0 {
		lo++
	}
	e.slotOf = t[lo:hi]
	if base := int(e.slotBase) + lo; base > 0xFFFF {
		e.slotBase = lte.RNTI(base - rntiSpan)
	} else {
		e.slotBase = lte.RNTI(base)
	}
}

// bindRNTI allocates a slot for a new UE under the next free C-RNTI:
// nextRNTI, wrapping from the top of the 16-bit range back to FirstUERNTI
// and skipping values live UEs still hold. It fails when every C-RNTI is
// taken.
func (e *ENB) bindRNTI() (lte.RNTI, int32, error) {
	for tries := 0; tries < rntiSpan; tries++ {
		rnti := e.nextRNTI
		if e.nextRNTI++; e.nextRNTI < lte.FirstUERNTI {
			e.nextRNTI = lte.FirstUERNTI
		}
		if _, live := e.lookup(rnti); live {
			continue
		}
		if len(e.slotOf) == 0 {
			e.slotBase = rnti
		}
		i := e.tableIndex(rnti)
		for len(e.slotOf) <= i {
			e.slotOf = append(e.slotOf, 0)
		}
		s := e.allocSlot()
		e.slotOf[i] = s + 1
		e.hot[s].rnti = rnti
		return rnti, s, nil
	}
	return 0, 0, fmt.Errorf("enb: eNodeB %d has no free C-RNTI", e.id)
}

// AddUE starts the attach procedure for a new UE and returns its RNTI.
func (e *ENB) AddUE(p UEParams) (lte.RNTI, error) {
	if e.findCell(p.Cell) == nil {
		return 0, fmt.Errorf("enb: unknown cell %d", p.Cell)
	}
	if p.Channel == nil {
		p.Channel = radio.Fixed(lte.MaxCQI)
	}
	rnti, s, err := e.bindRNTI()
	if err != nil {
		return 0, err
	}
	h := &e.hot[s]
	h.state = StateAttaching
	h.sigPending = int(e.attachSigBytes)
	h.cell = p.Cell
	c := &e.cold[s]
	c.params = p
	c.deadline = e.sf + lte.Subframe(e.attachTimeout)
	c.attempts = 1
	h.steady = e.trackChannel(p.Channel, 1)
	e.recount(h, 1)
	e.insertOrdered(s)
	e.event(protocol.UEEventRandomAccess, rnti, p.Cell)
	return rnti, nil
}

// RemoveUE detaches a UE.
func (e *ENB) RemoveUE(rnti lte.RNTI) {
	s, ok := e.lookup(rnti)
	if !ok {
		return
	}
	cellID := e.cold[s].params.Cell
	e.trackChannel(e.cold[s].params.Channel, -1)
	e.recount(&e.hot[s], -1)
	e.unbindRNTI(rnti)
	for i, os := range e.order {
		if os == s {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.resetSlot(s)
	e.free = append(e.free, s)
	e.event(protocol.UEEventDetach, rnti, cellID)
}

// HandoverState is the UE context transferred between eNodeBs during a
// handover: identity, pending queues (lossless X2-style data forwarding)
// and cumulative per-subscriber accounting so delivery metrics survive the
// cell change.
type HandoverState struct {
	Params UEParams
	// DLQueue/ULQueue are the bytes forwarded from the source cell.
	DLQueue int
	ULQueue int
	// Cumulative counters carried across cells.
	DLDelivered uint64
	ULDelivered uint64
	DLDropped   uint64
	HARQRetx    uint32
	AttachTries int
	// Smoothed PF rates, carried so the target scheduler starts from the
	// UE's real operating point instead of a cold average.
	AvgDLKbps float64
	AvgULKbps float64
}

// ReleaseUE removes a UE for handover, returning the context to admit at
// the target cell. Unlike a plain RemoveUE the pending queues are captured
// for forwarding; like RemoveUE it raises a detach event (the source
// agent's notification that the UE left this cell).
func (e *ENB) ReleaseUE(rnti lte.RNTI) (HandoverState, bool) {
	s, ok := e.lookup(rnti)
	if !ok {
		return HandoverState{}, false
	}
	h, c := &e.hot[s], &e.cold[s]
	st := HandoverState{
		Params:      c.params,
		DLQueue:     h.dlQueue,
		ULQueue:     h.ulQueue,
		DLDelivered: c.dlDelivered,
		ULDelivered: c.ulDelivered,
		DLDropped:   c.dlDropped,
		HARQRetx:    c.harqRetx,
		AttachTries: int(c.attempts),
		AvgDLKbps:   h.avgDL,
		AvgULKbps:   h.avgUL,
	}
	e.RemoveUE(rnti)
	return st, true
}

// AdmitUE admits a handed-over UE: it enters directly in the connected
// state (the RRC reconfiguration of a handover, not a fresh attach),
// inherits the forwarded queues and counters, and raises an attach event
// so the control plane learns the new binding.
func (e *ENB) AdmitUE(st HandoverState) (lte.RNTI, error) {
	if e.findCell(st.Params.Cell) == nil {
		return 0, fmt.Errorf("enb: unknown cell %d", st.Params.Cell)
	}
	if st.Params.Channel == nil {
		st.Params.Channel = radio.Fixed(lte.MaxCQI)
	}
	rnti, s, err := e.bindRNTI()
	if err != nil {
		return 0, err
	}
	dlQueue := min(st.DLQueue, int(e.dlQueueCap))
	h := &e.hot[s]
	h.state = StateConnected
	h.cell = st.Params.Cell
	h.dlQueue = dlQueue
	h.ulQueue = st.ULQueue
	h.avgDL = st.AvgDLKbps
	h.avgUL = st.AvgULKbps
	c := &e.cold[s]
	c.params = st.Params
	c.attempts = int32(st.AttachTries)
	c.dlDelivered = st.DLDelivered
	c.ulDelivered = st.ULDelivered
	c.dlDropped = st.DLDropped + uint64(st.DLQueue-dlQueue)
	c.harqRetx = st.HARQRetx
	h.steady = e.trackChannel(st.Params.Channel, 1)
	e.recount(h, 1)
	e.insertOrdered(s)
	e.event(protocol.UEEventAttach, rnti, st.Params.Cell)
	return rnti, nil
}

// DLEnqueue adds downlink bytes for a UE (the EPC injection path).
// It returns the bytes accepted after the queue cap.
func (e *ENB) DLEnqueue(rnti lte.RNTI, bytes int) int {
	s, ok := e.lookup(rnti)
	if !ok || bytes <= 0 {
		return 0
	}
	h := &e.hot[s]
	room := int(e.dlQueueCap) - h.dlQueue
	if bytes > room {
		e.cold[s].dlDropped += uint64(bytes - room)
		bytes = room
	}
	e.recount(h, -1)
	h.dlQueue += bytes
	e.recount(h, 1)
	return bytes
}

// ULEnqueue adds uplink bytes at the UE (its traffic generator). The first
// byte after an empty buffer raises a scheduling-request event.
func (e *ENB) ULEnqueue(rnti lte.RNTI, bytes int) int {
	s, ok := e.lookup(rnti)
	if !ok || bytes <= 0 {
		return 0
	}
	if e.hot[s].ulQueue == 0 {
		e.event(protocol.UEEventSchedulingRequest, rnti, e.hot[s].cell)
	}
	h := &e.hot[s] // after the hook, which may have moved the records
	e.recount(h, -1)
	h.ulQueue += bytes
	e.recount(h, 1)
	return bytes
}

func (e *ENB) event(ev protocol.UEEventType, rnti lte.RNTI, cellID lte.CellID) {
	if e.hooks.OnUEEvent != nil {
		e.hooks.OnUEEvent(ev, rnti, cellID)
	}
}

// Step executes the current subframe and advances the clock by one TTI.
func (e *ENB) Step() {
	sf := e.sf

	// 1. Channel refresh, the per-TTI delivery reset and attach
	// supervision. A steady channel is read once: its CQI cannot change.
	for _, s := range e.order {
		h := &e.hot[s]
		h.ttiDL, h.ttiUL = 0, 0
		if !h.cqiHeld {
			h.cqi = e.cold[s].params.Channel.CQI(sf)
			h.cqiHeld = h.steady
		}
		if h.state == StateAttaching && sf >= e.cold[s].deadline {
			// Attach timed out: restart the procedure (the UE retries).
			c := &e.cold[s]
			e.recount(h, -1)
			h.sigPending = int(e.attachSigBytes)
			e.recount(h, 1)
			c.deadline = sf + lte.Subframe(e.attachTimeout)
			c.attempts++
			e.event(protocol.UEEventRandomAccess, h.rnti, h.cell)
		}
	}

	// 2. Control-plane subframe tick (agent sends triggers/reports here),
	// then the periodic L3 measurement sweep feeding A3 evaluation.
	if e.hooks.OnSubframe != nil {
		e.hooks.OnSubframe(sf)
	}
	if e.hooks.OnMeasurement != nil && e.measurers > 0 && sf%DefaultMeasPeriodTTI == 0 {
		for _, s := range e.order {
			if e.hot[s].state != StateConnected {
				continue
			}
			nm, ok := e.cold[s].params.Channel.(radio.NeighborMeasurer)
			if !ok {
				continue
			}
			serving, neighbors := nm.Measure(sf, e.ws.meas)
			e.ws.meas = neighbors
			e.hooks.OnMeasurement(e.hot[s].rnti, e.cold[s].params.Cell, serving, neighbors)
		}
	}

	// 3. Per-cell scheduling and transmission.
	for i := range e.cellList {
		e.runCell(&e.cellList[i], sf)
	}

	// 4. Rate averaging for PF (updated every TTI, ~100 ms horizon).
	for _, s := range e.order {
		h := &e.hot[s]
		h.avgDL = updateAvg(h.avgDL, float64(h.ttiDL)*8)
		h.avgUL = updateAvg(h.avgUL, float64(h.ttiUL)*8)
	}

	e.sf++
}

func updateAvg(avgKbps, bitsThisTTI float64) float64 {
	const alpha = 0.01      // ~100 TTI averaging horizon
	instKbps := bitsThisTTI // bits per ms == kbit/s
	return (1-alpha)*avgKbps + alpha*instKbps
}

// insertOrdered adds a slot to the order slice keeping it sorted by RNTI.
// RNTIs are assigned monotonically, so the common case is an append; the
// binary search guards the invariant regardless.
func (e *ENB) insertOrdered(s int32) {
	rnti := e.hot[s].rnti
	n := len(e.order)
	if n == 0 || e.hot[e.order[n-1]].rnti < rnti {
		e.order = append(e.order, s)
		return
	}
	i := sort.Search(n, func(i int) bool { return e.hot[e.order[i]].rnti >= rnti })
	e.order = append(e.order, 0)
	copy(e.order[i+1:], e.order[i:])
	e.order[i] = s
}

func (e *ENB) runCell(c *cell, sf lte.Subframe) {
	slot := int(sf % activityWindow)
	c.activity[slot] = 0
	c.activitySF[slot] = sf
	c.usedPRB = 0

	// A direction the backlog counts prove empty is not snapshotted at
	// all: its scan would find no UE to schedule.
	if e.attaching > 0 || e.dlBacklog > 0 {
		used := e.schedule(c, sf, lte.Downlink, e.hooks.DLSchedule)
		c.activity[slot] += used
		c.usedPRB += used
	}
	// Uplink is granted on the same TTI for simplicity; the 4 ms grant
	// pipeline does not change steady-state behaviour.
	if e.ulBacklog > 0 {
		e.schedule(c, sf, lte.Uplink, e.hooks.ULSchedule)
	}
}

// schedule runs one direction of a cell's subframe: the snapshot, the
// direction's scheduling hook and the allocations it returns. A direction
// without a hook runs the local default, a round robin on the Workset
// with the eNodeB's own rotation. It returns the PRBs transmitted.
func (e *ENB) schedule(c *cell, sf lte.Subframe, dir lte.Direction, hook func(lte.CellID, sched.Input) []sched.Alloc) int {
	ues := e.schedInput(c, dir)
	if len(ues) == 0 {
		return 0
	}
	in := sched.Input{SF: sf, Dir: dir, TotalPRB: c.prbs, UEs: ues}
	var allocs []sched.Alloc
	if hook != nil {
		allocs = hook(c.cfg.Cell, in)
	} else {
		allocs = sched.ScheduleRoundRobin(in, &e.rot[dir], &e.ws.rr)
	}
	return e.apply(c, sf, dir, allocs, c.prbs)
}

// schedInput snapshots the schedulable UEs of a cell into the Workset's
// snapshot slice. The snapshot is valid until the next scheduling call of
// any eNodeB sharing the Workset; schedulers must not retain in.UEs past
// Schedule. The filter reads the hot records only; the cold record is read
// for the Group of a UE that is emitted.
func (e *ENB) schedInput(c *cell, dir lte.Direction) []sched.UEInfo {
	ues := e.ws.ues[:0]
	for _, s := range e.order {
		h := &e.hot[s]
		if h.cell != c.cfg.Cell || h.state == StateDetached {
			continue
		}
		var queue int
		var avg float64
		if dir == lte.Downlink {
			queue = h.dlQueue
			avg = h.avgDL
			if h.state == StateAttaching {
				queue = h.sigPending // signaling drains first
			}
		} else {
			if h.state != StateConnected {
				continue // no UL data before attach completes
			}
			queue = h.ulQueue
			avg = h.avgUL
		}
		if queue == 0 {
			continue
		}
		ues = append(ues, sched.UEInfo{
			RNTI:        h.rnti,
			CQI:         h.cqi,
			QueueBytes:  queue,
			AvgRateKbps: avg,
			LastSched:   h.lastSched,
			Group:       e.cold[s].params.Group,
		})
	}
	e.ws.ues = ues[:0] // keep grown capacity for the next snapshot
	return ues
}

// apply executes scheduling allocations against the data plane, returning
// the PRBs actually transmitted.
func (e *ENB) apply(c *cell, sf lte.Subframe, dir lte.Direction, allocs []sched.Alloc, budget int) int {
	used := 0
	for _, a := range allocs {
		s, ok := e.lookup(a.RNTI)
		if !ok || a.RBCount <= 0 {
			continue
		}
		if used+a.RBCount > budget {
			a.RBCount = budget - used
			if a.RBCount <= 0 {
				break
			}
		}
		used += a.RBCount
		e.transmit(s, sf, dir, a)
	}
	return used
}

// transmit delivers one transport block with HARQ error behaviour.
func (e *ENB) transmit(s int32, sf lte.Subframe, dir lte.Direction, a sched.Alloc) {
	chosen := lte.CQIForMCS(a.MCS)
	tbs := lte.TBSBytes(dir, chosen, a.RBCount)
	if tbs == 0 {
		return
	}
	h := &e.hot[s]
	retx := int(h.retxDL)
	if dir == lte.Uplink {
		retx = int(h.retxUL)
	}
	p := lte.BLER(chosen, h.cqi, retx)
	// math/rand/v2's Rand.Float64, drawn from the inline source.
	if float64(e.harq.Uint64()<<11>>11)/(1<<53) < p {
		// Transport block lost; HARQ keeps the data queued.
		e.cold[s].harqRetx++
		if retx < lte.MaxHARQRetx {
			retx++
		}
		if dir == lte.Downlink {
			h.retxDL = int32(retx)
		} else {
			h.retxUL = int32(retx)
		}
		return
	}
	e.recount(h, -1)
	if dir == lte.Downlink {
		h.retxDL = 0
		if h.state == StateAttaching {
			// Signaling is delivered ahead of user data.
			sig := min(tbs, h.sigPending)
			h.sigPending -= sig
			tbs -= sig
			if h.sigPending == 0 {
				h.state = StateConnected
				// The hook may enqueue for this UE, so it sees the counts
				// whole.
				e.recount(h, 1)
				e.event(protocol.UEEventAttach, h.rnti, h.cell)
				h = &e.hot[s] // the hook may have moved the records
				e.recount(h, -1)
			}
		}
		data := min(tbs, h.dlQueue)
		h.dlQueue -= data
		e.cold[s].dlDelivered += uint64(data)
		h.ttiDL += int32(data)
	} else {
		h.retxUL = 0
		data := min(tbs, h.ulQueue)
		h.ulQueue -= data
		e.cold[s].ulDelivered += uint64(data)
		h.ttiUL += int32(data)
	}
	e.recount(h, 1)
	h.lastSched = sf
}
