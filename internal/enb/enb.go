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
// UE state is held in a struct-of-arrays layout: the fields every TTI
// touches (CQI, queues, averaging, HARQ bookkeeping) live in dense parallel
// lanes indexed by a compact slot id, while the rarely-touched remainder
// (identity, attach supervision) sits in a parallel cold array. Slots are
// recycled through a free list on detach/handover; a dense RNTI-indexed
// table (RNTI→slot) provides O(1) lookups without per-UE heap objects.
package enb

import (
	"cmp"
	"fmt"
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

// hotState holds the per-TTI-touched UE fields as parallel lanes indexed
// by slot id. Everything the subframe loop reads or writes per UE lives
// here, contiguous per eNodeB, so the TTI sweep walks dense arrays instead
// of chasing map buckets and per-UE heap objects.
//
// Ownership contract: lanes are owned by the eNodeB's single-threaded
// driver (simulation shard or agent runtime); slot ids are private and
// never escape the package. A freed slot is fully zeroed by resetSlot
// before it returns to the free list — allocSlot relies on that (and so
// does recycled-slot correctness: stale CQI/queue lanes must never leak
// into a new UE).
type hotState struct {
	rnti       []lte.RNTI
	state      []UEState
	cqi        []lte.CQI
	dlQueue    []int   // RLC transmission queue, bytes
	ulQueue    []int   // buffer status, bytes
	sigPending []int   // pending attach signaling, bytes
	retxDL     []int32 // consecutive HARQ failures (chase combining state)
	retxUL     []int32
	ttiDL      []int32 // per-TTI delivery accounting (reset each Step)
	ttiUL      []int32
	avgDL      []float64 // PF average rate (EWMA), kbit/s
	avgUL      []float64
	lastSched  []lte.Subframe
}

// coldState is the rarely-touched remainder of a UE slot: identity and
// channel binding, attach supervision, and cumulative counters that only
// move when the UE is actually scheduled.
type coldState struct {
	params      UEParams
	deadline    lte.Subframe // attach deadline
	attempts    int          // attach attempts
	dlDelivered uint64       // cumulative goodput, bytes
	ulDelivered uint64
	dlDropped   uint64 // queue-cap drops
	harqRetx    uint32 // cumulative retransmissions
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
	// evaluation on this stream. neighbors is the eNodeB's measurement
	// scratch, valid only during the call.
	OnMeasurement func(rnti lte.RNTI, cellID lte.CellID, serving radio.Meas, neighbors []radio.Meas)
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
	cfg Config
	// cellList is the cells in ascending id order, fixed at construction.
	// An eNodeB carries one to a few cells, so a lookup by id walks it.
	cellList []*cell

	hot  hotState
	cold []coldState
	// order is the live slots in ascending RNTI order, kept sorted
	// incrementally (insertion keeps the invariant; removal preserves it),
	// so per-TTI sweeps never re-sort and never touch a map.
	order []int32
	// slotOf maps RNTI→slot by direct index: entry rnti-FirstUERNTI holds
	// slot+1, 0 for an RNTI no live UE holds. It grows to the highest RNTI
	// handed out; read it through lookup, which bounds-checks both ends.
	slotOf []int32
	free   []int32 // recycled slots (fully zeroed)

	// unsteady counts live UEs whose channel model does not declare a
	// constant CQI; while nonzero the eNodeB can never be fast-forwarded
	// (the per-TTI CQI refresh is observable). measurers counts live UEs
	// whose channel supports L3 measurements, gating the measurement-wake
	// contribution of NextWake.
	unsteady  int
	measurers int

	sf       lte.Subframe
	hooks    Hooks
	rnd      *rand.Rand
	nextRNTI lte.RNTI

	// schedUEs is the reusable scratch behind schedInput's UE snapshots
	// (safe: schedulers must not retain the slice past the call, and the
	// DL and UL passes of one cell run sequentially).
	schedUEs []sched.UEInfo
	// measBuf is the reusable neighbour list behind the measurement sweep
	// (safe: OnMeasurement must not retain the slice past the call).
	measBuf []radio.Meas
}

// New builds an eNodeB with local default schedulers (round robin), i.e.
// the "vanilla OAI" configuration of the Fig. 6 comparison.
func New(cfg Config) *ENB {
	if cfg.AttachSignalingBytes == 0 {
		cfg.AttachSignalingBytes = DefaultAttachSignalingBytes
	}
	if cfg.AttachTimeoutTTI == 0 {
		cfg.AttachTimeoutTTI = DefaultAttachTimeoutTTI
	}
	if cfg.DLQueueCap == 0 {
		cfg.DLQueueCap = DefaultDLQueueCap
	}
	if len(cfg.Cells) == 0 {
		cfg.Cells = []protocol.CellConfig{DefaultCell(0)}
	}
	e := &ENB{
		cfg:      cfg,
		cellList: make([]*cell, 0, len(cfg.Cells)),
		rnd:      rng.New(cfg.Seed + 1),
		nextRNTI: lte.FirstUERNTI,
	}
	for _, cc := range cfg.Cells {
		c := e.findCell(cc.Cell) // a repeated id keeps its last configuration
		if c == nil {
			c = &cell{}
			e.cellList = append(e.cellList, c)
		}
		*c = cell{cfg: cc, prbs: cc.Bandwidth.PRBs()}
	}
	slices.SortFunc(e.cellList, func(a, b *cell) int { return cmp.Compare(a.cfg.Cell, b.cfg.Cell) })
	dl := sched.NewRoundRobin()
	ul := sched.NewRoundRobin()
	e.hooks = Hooks{
		DLSchedule: func(_ lte.CellID, in sched.Input) []sched.Alloc { return dl.Schedule(in) },
		ULSchedule: func(_ lte.CellID, in sched.Input) []sched.Alloc { return ul.Schedule(in) },
	}
	return e
}

// ID returns the eNodeB identifier.
func (e *ENB) ID() lte.ENBID { return e.cfg.ID }

// Now returns the current subframe (the next one Step will execute).
func (e *ENB) Now() lte.Subframe { return e.sf }

// Config exports the eNodeB configuration for the agent's Hello message.
func (e *ENB) Config() protocol.ENBConfig {
	out := protocol.ENBConfig{ID: e.cfg.ID}
	for _, c := range e.cellList {
		out.Cells = append(out.Cells, c.cfg)
	}
	return out
}

// findCell returns the cell with the given id, or nil.
func (e *ENB) findCell(id lte.CellID) *cell {
	for _, c := range e.cellList {
		if c.cfg.Cell == id {
			return c
		}
	}
	return nil
}

// SetHooks installs the control plane. Passing a partially filled Hooks
// keeps the previous function for nil fields, so an agent can take over
// scheduling while leaving event routing unchanged (or vice versa).
func (e *ENB) SetHooks(h Hooks) {
	if h.DLSchedule != nil {
		e.hooks.DLSchedule = h.DLSchedule
	}
	if h.ULSchedule != nil {
		e.hooks.ULSchedule = h.ULSchedule
	}
	if h.OnUEEvent != nil {
		e.hooks.OnUEEvent = h.OnUEEvent
	}
	if h.OnSubframe != nil {
		e.hooks.OnSubframe = h.OnSubframe
	}
	if h.OnMeasurement != nil {
		e.hooks.OnMeasurement = h.OnMeasurement
	}
}

// allocSlot returns a fully zeroed slot id, reusing the free list before
// growing every lane in lockstep.
func (e *ENB) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	h := &e.hot
	h.rnti = append(h.rnti, 0)
	h.state = append(h.state, 0)
	h.cqi = append(h.cqi, 0)
	h.dlQueue = append(h.dlQueue, 0)
	h.ulQueue = append(h.ulQueue, 0)
	h.sigPending = append(h.sigPending, 0)
	h.retxDL = append(h.retxDL, 0)
	h.retxUL = append(h.retxUL, 0)
	h.ttiDL = append(h.ttiDL, 0)
	h.ttiUL = append(h.ttiUL, 0)
	h.avgDL = append(h.avgDL, 0)
	h.avgUL = append(h.avgUL, 0)
	h.lastSched = append(h.lastSched, 0)
	e.cold = append(e.cold, coldState{})
	return int32(len(h.rnti) - 1)
}

// resetSlot zeroes every hot lane and the cold record of a slot. Called on
// every free: slot reuse after detach/handover must never leak the previous
// occupant's CQI, queues, averages or HARQ state into the next UE.
func (e *ENB) resetSlot(s int32) {
	h := &e.hot
	h.rnti[s] = 0
	h.state[s] = 0
	h.cqi[s] = 0
	h.dlQueue[s] = 0
	h.ulQueue[s] = 0
	h.sigPending[s] = 0
	h.retxDL[s] = 0
	h.retxUL[s] = 0
	h.ttiDL[s] = 0
	h.ttiUL[s] = 0
	h.avgDL[s] = 0
	h.avgUL[s] = 0
	h.lastSched[s] = 0
	e.cold[s] = coldState{}
}

// trackChannel maintains the unsteady/measurers counters as UEs come and
// go (delta is +1 on add, -1 on remove).
func (e *ENB) trackChannel(ch radio.Model, delta int) {
	if c, ok := ch.(radio.ConstantCQI); !ok || !c.ConstantCQI() {
		e.unsteady += delta
	}
	if _, ok := ch.(radio.NeighborMeasurer); ok {
		e.measurers += delta
	}
}

// lookup resolves an RNTI to its slot. Any value is safe to ask about —
// reserved RNTIs below FirstUERNTI, ones never handed out, ones a remote
// scheduler invented — and reads as "unknown UE".
func (e *ENB) lookup(rnti lte.RNTI) (int32, bool) {
	i := int(rnti) - int(lte.FirstUERNTI)
	if i < 0 || i >= len(e.slotOf) || e.slotOf[i] == 0 {
		return 0, false
	}
	return e.slotOf[i] - 1, true
}

// bindRNTI allocates a slot for a new UE under the next free C-RNTI:
// nextRNTI, wrapping from the top of the 16-bit range back to FirstUERNTI
// and skipping values live UEs still hold. It fails when every C-RNTI is
// taken.
func (e *ENB) bindRNTI() (lte.RNTI, int32, error) {
	const span = 1<<16 - int(lte.FirstUERNTI)
	for tries := 0; tries < span; tries++ {
		rnti := e.nextRNTI
		if e.nextRNTI++; e.nextRNTI < lte.FirstUERNTI {
			e.nextRNTI = lte.FirstUERNTI
		}
		if _, live := e.lookup(rnti); live {
			continue
		}
		i := int(rnti - lte.FirstUERNTI)
		for len(e.slotOf) <= i {
			e.slotOf = append(e.slotOf, 0)
		}
		s := e.allocSlot()
		e.slotOf[i] = s + 1
		e.hot.rnti[s] = rnti
		return rnti, s, nil
	}
	return 0, 0, fmt.Errorf("enb: eNodeB %d has no free C-RNTI", e.cfg.ID)
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
	e.hot.state[s] = StateAttaching
	e.hot.sigPending[s] = e.cfg.AttachSignalingBytes
	c := &e.cold[s]
	c.params = p
	c.deadline = e.sf + lte.Subframe(e.cfg.AttachTimeoutTTI)
	c.attempts = 1
	e.insertOrdered(s)
	e.trackChannel(p.Channel, 1)
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
	e.slotOf[rnti-lte.FirstUERNTI] = 0
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
	c := &e.cold[s]
	st := HandoverState{
		Params:      c.params,
		DLQueue:     e.hot.dlQueue[s],
		ULQueue:     e.hot.ulQueue[s],
		DLDelivered: c.dlDelivered,
		ULDelivered: c.ulDelivered,
		DLDropped:   c.dlDropped,
		HARQRetx:    c.harqRetx,
		AttachTries: c.attempts,
		AvgDLKbps:   e.hot.avgDL[s],
		AvgULKbps:   e.hot.avgUL[s],
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
	e.hot.state[s] = StateConnected
	dlQueue := min(st.DLQueue, e.cfg.DLQueueCap)
	e.hot.dlQueue[s] = dlQueue
	e.hot.ulQueue[s] = st.ULQueue
	e.hot.avgDL[s] = st.AvgDLKbps
	e.hot.avgUL[s] = st.AvgULKbps
	c := &e.cold[s]
	c.params = st.Params
	c.attempts = st.AttachTries
	c.dlDelivered = st.DLDelivered
	c.ulDelivered = st.ULDelivered
	c.dlDropped = st.DLDropped + uint64(st.DLQueue-dlQueue)
	c.harqRetx = st.HARQRetx
	e.insertOrdered(s)
	e.trackChannel(st.Params.Channel, 1)
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
	room := e.cfg.DLQueueCap - e.hot.dlQueue[s]
	if bytes > room {
		e.cold[s].dlDropped += uint64(bytes - room)
		bytes = room
	}
	e.hot.dlQueue[s] += bytes
	return bytes
}

// ULEnqueue adds uplink bytes at the UE (its traffic generator). The first
// byte after an empty buffer raises a scheduling-request event.
func (e *ENB) ULEnqueue(rnti lte.RNTI, bytes int) int {
	s, ok := e.lookup(rnti)
	if !ok || bytes <= 0 {
		return 0
	}
	if e.hot.ulQueue[s] == 0 {
		e.event(protocol.UEEventSchedulingRequest, rnti, e.cold[s].params.Cell)
	}
	e.hot.ulQueue[s] += bytes
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
	h := &e.hot

	// 1. Channel refresh and attach supervision.
	for _, s := range e.order {
		c := &e.cold[s]
		h.cqi[s] = c.params.Channel.CQI(sf)
		if h.state[s] == StateAttaching && sf >= c.deadline {
			// Attach timed out: restart the procedure (the UE retries).
			h.sigPending[s] = e.cfg.AttachSignalingBytes
			c.deadline = sf + lte.Subframe(e.cfg.AttachTimeoutTTI)
			c.attempts++
			e.event(protocol.UEEventRandomAccess, h.rnti[s], c.params.Cell)
		}
	}

	// 2. Control-plane subframe tick (agent sends triggers/reports here),
	// then the periodic L3 measurement sweep feeding A3 evaluation.
	if e.hooks.OnSubframe != nil {
		e.hooks.OnSubframe(sf)
	}
	if e.hooks.OnMeasurement != nil && e.measurers > 0 && sf%DefaultMeasPeriodTTI == 0 {
		for _, s := range e.order {
			if h.state[s] != StateConnected {
				continue
			}
			nm, ok := e.cold[s].params.Channel.(radio.NeighborMeasurer)
			if !ok {
				continue
			}
			serving, neighbors := nm.Measure(sf, e.measBuf)
			e.measBuf = neighbors
			e.hooks.OnMeasurement(h.rnti[s], e.cold[s].params.Cell, serving, neighbors)
		}
	}

	// 3. Per-cell scheduling and transmission.
	for _, s := range e.order {
		h.ttiDL[s] = 0
		h.ttiUL[s] = 0
	}
	for _, c := range e.cellList {
		e.runCell(c, sf)
	}

	// 4. Rate averaging for PF (updated every TTI, ~100 ms horizon).
	for _, s := range e.order {
		h.avgDL[s] = updateAvg(h.avgDL[s], float64(h.ttiDL[s])*8)
		h.avgUL[s] = updateAvg(h.avgUL[s], float64(h.ttiUL[s])*8)
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
	rnti := e.hot.rnti[s]
	n := len(e.order)
	if n == 0 || e.hot.rnti[e.order[n-1]] < rnti {
		e.order = append(e.order, s)
		return
	}
	i := sort.Search(n, func(i int) bool { return e.hot.rnti[e.order[i]] >= rnti })
	e.order = append(e.order, 0)
	copy(e.order[i+1:], e.order[i:])
	e.order[i] = s
}

func (e *ENB) runCell(c *cell, sf lte.Subframe) {
	slot := int(sf % activityWindow)
	c.activity[slot] = 0
	c.activitySF[slot] = sf
	c.usedPRB = 0

	// Downlink.
	dlIn := e.schedInput(c, sf, lte.Downlink)
	if len(dlIn.UEs) > 0 && e.hooks.DLSchedule != nil {
		used := e.apply(c, sf, lte.Downlink, e.hooks.DLSchedule(c.cfg.Cell, dlIn), dlIn.TotalPRB)
		c.activity[slot] += used
		c.usedPRB += used
	}
	// Uplink (granted on the same TTI for simplicity; the 4 ms grant
	// pipeline does not change steady-state behaviour).
	ulIn := e.schedInput(c, sf, lte.Uplink)
	if len(ulIn.UEs) > 0 && e.hooks.ULSchedule != nil {
		e.apply(c, sf, lte.Uplink, e.hooks.ULSchedule(c.cfg.Cell, ulIn), ulIn.TotalPRB)
	}
}

// schedInput snapshots the schedulable UEs of a cell into the eNodeB's
// reusable scratch slice. The returned Input is valid until the next
// schedInput call; schedulers must not retain in.UEs past Schedule.
func (e *ENB) schedInput(c *cell, sf lte.Subframe, dir lte.Direction) sched.Input {
	in := sched.Input{SF: sf, Dir: dir, TotalPRB: c.prbs, UEs: e.schedUEs[:0]}
	h := &e.hot
	for _, s := range e.order {
		cold := &e.cold[s]
		if cold.params.Cell != c.cfg.Cell || h.state[s] == StateDetached {
			continue
		}
		var queue int
		var avg float64
		if dir == lte.Downlink {
			queue = h.dlQueue[s]
			avg = h.avgDL[s]
			if h.state[s] == StateAttaching {
				queue = h.sigPending[s] // signaling drains first
			}
		} else {
			if h.state[s] != StateConnected {
				continue // no UL data before attach completes
			}
			queue = h.ulQueue[s]
			avg = h.avgUL[s]
		}
		if queue == 0 {
			continue
		}
		in.UEs = append(in.UEs, sched.UEInfo{
			RNTI:        h.rnti[s],
			CQI:         h.cqi[s],
			QueueBytes:  queue,
			AvgRateKbps: avg,
			LastSched:   h.lastSched[s],
			Group:       cold.params.Group,
		})
	}
	e.schedUEs = in.UEs[:0] // keep grown capacity for the next snapshot
	return in
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
	h := &e.hot
	retx := int(h.retxDL[s])
	if dir == lte.Uplink {
		retx = int(h.retxUL[s])
	}
	p := lte.BLER(chosen, h.cqi[s], retx)
	if e.rnd.Float64() < p {
		// Transport block lost; HARQ keeps the data queued.
		e.cold[s].harqRetx++
		if retx < lte.MaxHARQRetx {
			retx++
		}
		if dir == lte.Downlink {
			h.retxDL[s] = int32(retx)
		} else {
			h.retxUL[s] = int32(retx)
		}
		return
	}
	if dir == lte.Downlink {
		h.retxDL[s] = 0
		if h.state[s] == StateAttaching {
			// Signaling is delivered ahead of user data.
			sig := min(tbs, h.sigPending[s])
			h.sigPending[s] -= sig
			tbs -= sig
			if h.sigPending[s] == 0 {
				h.state[s] = StateConnected
				e.event(protocol.UEEventAttach, h.rnti[s], e.cold[s].params.Cell)
			}
		}
		data := min(tbs, h.dlQueue[s])
		h.dlQueue[s] -= data
		e.cold[s].dlDelivered += uint64(data)
		h.ttiDL[s] += int32(data)
	} else {
		h.retxUL[s] = 0
		data := min(tbs, h.ulQueue[s])
		h.ulQueue[s] -= data
		e.cold[s].ulDelivered += uint64(data)
		h.ttiUL[s] += int32(data)
	}
	h.lastSched[s] = sf
}
