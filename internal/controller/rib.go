// Package controller implements the FlexRAN master controller (paper
// §4.3.3): the RAN Information Base (a forest of agents, cells and UEs),
// the single-writer-per-agent RIB Updater, the Task Manager running
// applications in TTI cycles, the Event Notification Service and the
// northbound API that RAN control/management applications program against.
package controller

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// UERecord is a UE leaf of the RIB. While the agent's latest statistics
// report has a row for the UE, the UE's statistics are that row of the
// shard's table and the record holds none of its own. Only a record without
// a row keeps statistics, behind a pointer: a resync's, or the last row the
// UE had before a report left it out; a record that never had either reads
// zero statistics. RIB.UEStats and RIB.UEsOf read whichever applies.
type UERecord struct {
	Config protocol.UEConfig
	// Meas is the latest A3 measurement report (nil before the first);
	// MeasSF stamps when it arrived.
	Meas   *protocol.MeasReport
	MeasSF lte.Subframe

	stats *protocol.UEStats // the statistics of a record without a row; nil = zero
	row   int32             // 1 + the UE's row in the shard's table; 0 = none, stats applies
	kept  bool              // applyStats: the incoming report has a row for the UE
}

// CellRecord is a cell node of the RIB.
type CellRecord struct {
	Config protocol.CellConfig
	Stats  protocol.CellStats
	UEs    map[lte.RNTI]*UERecord
}

// agentShard is one shard of the RIB: the complete record of one agent.
// Sharding by ENBID works because every inbound message mutates exactly
// one agent's subtree, so updaters for different eNodeBs never contend.
// Hot scalar fields (agent time, liveness, UE count) are atomics so the
// corresponding read paths take no lock at all.
type agentShard struct {
	mu     sync.RWMutex // guards config and the cells subtree
	config protocol.ENBConfig
	cells  map[lte.CellID]*CellRecord

	lastSF    atomic.Uint64 // lte.Subframe of the agent's latest observed time
	connected atomic.Bool
	ueCount   atomic.Int64
	// health is the monitor's grade (HealthState; zero = Healthy). Written
	// only by grade in the master's session step; read lock-free by
	// policy code via HealthOf.
	health atomic.Uint32

	// tbl is the agent's latest statistics report and rowRec the record
	// each of its rows resolved to, nil for a row in a cell the agent never
	// announced (both guarded by mu). An agent reports the same UEs in the
	// same order TTI after TTI, so while a report's RNTI and Cell columns
	// equal tbl's and rowsValid holds — no record was removed since —
	// applyReport takes or copies the report's table (take) and touches no
	// record.
	tbl       protocol.UETable
	rowRec    []*UERecord
	rowsValid bool
}

// ribTopology is the copy-on-write agent directory. The shard set only
// changes on Hello (rare), so it is republished wholesale and readers
// resolve ENBID to shard without locking.
type ribTopology struct {
	shards map[lte.ENBID]*agentShard
	ids    []lte.ENBID // sorted
}

// RIB is the RAN Information Base, sharded by ENBID. Mutation is reserved
// to the RIB Updater (the master's Tick); applications read concurrently.
// Per-shard locks keep the paper's single-writer/multi-reader discipline
// without one lock for the whole base.
type RIB struct {
	topoMu sync.Mutex // serializes topology (shard set) changes
	topo   atomic.Pointer[ribTopology]
}

// NewRIB returns an empty information base.
func NewRIB() *RIB {
	r := &RIB{}
	r.topo.Store(&ribTopology{shards: map[lte.ENBID]*agentShard{}})
	return r
}

func (r *RIB) shard(enb lte.ENBID) *agentShard {
	return r.topo.Load().shards[enb]
}

// --- writer side (RIB Updater only) ---

func (r *RIB) applyHello(enb lte.ENBID, cfg protocol.ENBConfig) {
	sh := &agentShard{
		config: cfg,
		cells:  map[lte.CellID]*CellRecord{},
	}
	for _, cc := range cfg.Cells {
		sh.cells[cc.Cell] = &CellRecord{Config: cc, UEs: map[lte.RNTI]*UERecord{}}
	}
	sh.connected.Store(true)

	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	old := r.topo.Load()
	next := &ribTopology{shards: make(map[lte.ENBID]*agentShard, len(old.shards)+1)}
	for id, s := range old.shards {
		next.shards[id] = s
	}
	next.shards[enb] = sh // a re-Hello replaces the whole subtree
	next.ids = make([]lte.ENBID, 0, len(next.shards))
	for id := range next.shards {
		next.ids = append(next.ids, id)
	}
	sort.Slice(next.ids, func(i, j int) bool { return next.ids[i] < next.ids[j] })
	r.topo.Store(next)
}

func (r *RIB) applyDisconnect(enb lte.ENBID) {
	if sh := r.shard(enb); sh != nil {
		sh.connected.Store(false)
	}
}

// applyResync rebuilds an agent's shard from a StateSnapshot: the UE forest
// under every cell is replaced wholesale by the snapshot's rows (full
// statistics copied out, identities joined by RNTI), cell statistics and
// the agent-time watermark are refreshed, and the agent is marked live.
// This is the one-cycle RIB convergence path after a reconnect — no
// dependence on periodic reports trickling the state back in. If the
// snapshot outran the Hello (no shard yet), the shard is created from the
// snapshot's own config; the snapshot payload is pooling-exempt for
// exactly this retention.
func (r *RIB) applyResync(enb lte.ENBID, snap *protocol.StateSnapshot) {
	sh := r.shard(enb)
	if sh == nil {
		r.applyHello(enb, snap.Config)
		sh = r.shard(enb)
	}
	imsis := map[lte.RNTI]uint64{}
	for i := range snap.Configs {
		imsis[snap.Configs[i].RNTI] = snap.Configs[i].IMSI
	}
	sh.mu.Lock()
	for _, c := range sh.cells {
		for rnti := range c.UEs {
			sh.removeUE(c, rnti)
		}
	}
	for i, n := 0, snap.UEs.Len(); i < n; i++ {
		rnti := snap.UEs.RNTI[i]
		c := sh.cells[snap.UEs.Cell[i]]
		if c == nil {
			continue
		}
		u := sh.ue(c, rnti, imsis[rnti]) // an RNTI listed twice keeps its last row
		if u.stats == nil {
			u.stats = new(protocol.UEStats)
		}
		snap.UEs.Row(i, u.stats)
	}
	for _, cs := range snap.Cells {
		if c := sh.cells[cs.Cell]; c != nil {
			c.Stats = cs
		}
	}
	sh.mu.Unlock()
	sh.advanceSF(snap.SF)
	sh.connected.Store(true)
}

// ue returns the record of a UE under cell c, creating it when this is the
// first the shard hears of the RNTI, and fills in the IMSI once a message
// that knows it (imsi != 0) comes by; removeUE drops a record. Every change
// to a shard's record set goes through these two (sh.mu held), which keep
// the lock-free UE count in step. A removal also forgets the remembered row
// resolution, which may point at the record; an addition cannot change what
// a remembered row resolves to (every row in a known cell has its record
// already, and a shard's cells are fixed at Hello).
func (sh *agentShard) ue(c *CellRecord, rnti lte.RNTI, imsi uint64) *UERecord {
	u := c.UEs[rnti]
	if u == nil {
		u = &UERecord{Config: protocol.UEConfig{RNTI: rnti, Cell: c.Config.Cell}}
		c.UEs[rnti] = u
		sh.ueCount.Add(1)
	}
	if u.Config.IMSI == 0 {
		u.Config.IMSI = imsi
	}
	return u
}

func (sh *agentShard) removeUE(c *CellRecord, rnti lte.RNTI) {
	c.UEs[rnti].row = 0 // a removed record owns no row
	delete(c.UEs, rnti)
	sh.ueCount.Add(-1)
	sh.rowsValid = false
}

// advanceSF lifts the shard's agent-time watermark to sf (monotonic).
func (sh *agentShard) advanceSF(sf lte.Subframe) {
	for {
		old := sh.lastSF.Load()
		if uint64(sf) <= old {
			return
		}
		if sh.lastSF.CompareAndSwap(old, uint64(sf)) {
			return
		}
	}
}

func (r *RIB) applySF(enb lte.ENBID, sf lte.Subframe) {
	if sh := r.shard(enb); sh != nil {
		sh.advanceSF(sf)
	}
}

// applyStats makes rep the shard's latest report, copying its table: rep
// stays as it was, for a sender that delivers it again.
func (r *RIB) applyStats(enb lte.ENBID, rep *protocol.StatsReply) { r.applyReport(enb, rep, false) }

// takeStats is applyStats for a report from the free lists
// (protocol.Message.Owned), released after this tick: the shard takes its
// table and leaves rep with the one it replaced.
func (r *RIB) takeStats(enb lte.ENBID, rep *protocol.StatsReply) { r.applyReport(enb, rep, true) }

// applyReport is applyStats, or takeStats when owned.
func (r *RIB) applyReport(enb lte.ENBID, rep *protocol.StatsReply, owned bool) {
	sh := r.shard(enb)
	if sh == nil {
		return
	}
	sh.advanceSF(rep.SF)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, cs := range rep.Cells {
		if c := sh.cells[cs.Cell]; c != nil {
			c.Stats = cs
		}
	}
	ues := &rep.UEs
	if sh.rowsValid && slices.Equal(sh.tbl.RNTI, ues.RNTI) && slices.Equal(sh.tbl.Cell, ues.Cell) {
		sh.take(ues, owned)
		return
	}
	// The row set changed. The report's rows are resolved first, so that
	// only a record the report leaves out takes its own copy of its last row
	// (detach) and keeps its last statistics; then the rows are assigned.
	n := ues.Len()
	for i := 0; i < n; i++ {
		if c := sh.cells[ues.Cell[i]]; c != nil {
			sh.ue(c, ues.RNTI[i], 0).kept = true
		}
	}
	for _, u := range sh.rowRec {
		if u != nil && u.row > 0 {
			if !u.kept {
				u.stats = new(protocol.UEStats)
				sh.tbl.Row(int(u.row)-1, u.stats)
			}
			u.row = 0
		}
	}
	sh.rowRec = sh.rowRec[:0]
	for i := 0; i < n; i++ {
		var u *UERecord
		if c := sh.cells[ues.Cell[i]]; c != nil {
			u = c.UEs[ues.RNTI[i]]
			u.row = int32(i + 1) // an RNTI listed twice reads its last row
			u.stats = nil        // the row holds them now
			u.kept = false
		}
		sh.rowRec = append(sh.rowRec, u)
	}
	sh.rowsValid = true
	sh.take(ues, owned)
}

// take makes ues the shard's table (sh.mu held), after every read of the
// report and of the table it replaces. An owned report is released after
// this tick, so the two tables swap and the shard's old one goes back to
// the free list with the message. Any other report is copied, one bulk
// copy per column into the table's own capacity, since a New-built message
// may be delivered again.
func (sh *agentShard) take(ues *protocol.UETable, owned bool) {
	if owned {
		sh.tbl, *ues = *ues, sh.tbl
		return
	}
	sh.tbl.CopyFrom(ues)
}

// statsOf copies u's latest statistics into dst, reusing dst's
// SubbandCQI/LCs capacity (sh.mu held): u's row of the shard's table while
// it has one, else its own statistics, else zero ones.
func (sh *agentShard) statsOf(u *UERecord, dst *protocol.UEStats) {
	switch {
	case u.row > 0:
		sh.tbl.Row(int(u.row)-1, dst)
	case u.stats != nil:
		dst.CopyFrom(u.stats)
	default:
		dst.CopyFrom(&protocol.UEStats{})
	}
}

// applyMeasReport attaches an A3 measurement report to the UE's record
// (creating the record if the report outran the stats stream).
func (r *RIB) applyMeasReport(enb lte.ENBID, sf lte.Subframe, rep *protocol.MeasReport) {
	sh := r.shard(enb)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.cells[rep.Cell]
	if c == nil {
		return
	}
	u := sh.ue(c, rep.RNTI, rep.IMSI)
	u.Meas = rep
	u.MeasSF = sf
}

// applyHandoverComplete materializes the target half of a UE migration
// between shards. The source half is NOT touched here: removing the old
// record is the source session's own job (its agent emits a detach event
// when the UE is released), which preserves the updater's
// single-writer-per-shard discipline — a HandoverComplete arrives on the
// *target* agent's session, and letting it write the source shard would
// interleave with the source session's in-order stream.
func (r *RIB) applyHandoverComplete(to lte.ENBID, hc *protocol.HandoverComplete) {
	sh := r.shard(to)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.cells[hc.Cell]
	if c == nil {
		return
	}
	sh.ue(c, hc.RNTI, hc.IMSI)
}

func (r *RIB) applyUEEvent(enb lte.ENBID, ev *protocol.UEEvent) {
	sh := r.shard(enb)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.cells[ev.Cell]
	if c == nil {
		return
	}
	switch ev.Type {
	case protocol.UEEventAttach, protocol.UEEventRandomAccess:
		sh.ue(c, ev.RNTI, 0)
	case protocol.UEEventDetach:
		if _, ok := c.UEs[ev.RNTI]; ok {
			sh.removeUE(c, ev.RNTI)
		}
	}
}

// --- reader side (applications) ---

// Agents lists the known agents, ordered by id. The read is lock-free: it
// copies the presorted directory of the current topology snapshot.
func (r *RIB) Agents() []lte.ENBID {
	ids := r.topo.Load().ids
	out := make([]lte.ENBID, len(ids))
	copy(out, ids)
	return out
}

// AppendAgents is Agents into caller-owned scratch: a per-tick app passing
// dst[:0] takes the directory snapshot allocation-free at steady state.
func (r *RIB) AppendAgents(dst []lte.ENBID) []lte.ENBID {
	return append(dst, r.topo.Load().ids...)
}

// Connected reports whether an agent session is live (lock-free).
func (r *RIB) Connected(enb lte.ENBID) bool {
	sh := r.shard(enb)
	return sh != nil && sh.connected.Load()
}

// setHealth records the health monitor's grade for an agent (writer side:
// the master's grade only).
func (r *RIB) setHealth(enb lte.ENBID, h HealthState) {
	if sh := r.shard(enb); sh != nil {
		sh.health.Store(uint32(h))
	}
}

// HealthOf returns the health monitor's grade for an agent (lock-free):
// HealthDown for unknown or disconnected agents, otherwise the monitor's
// last written state — Healthy until the monitor (if enabled) downgrades.
// Policy code gates on this next to Connected: a Suspect agent is live but
// must not be chosen for new work (handover targets, share pushes).
func (r *RIB) HealthOf(enb lte.ENBID) HealthState {
	sh := r.shard(enb)
	if sh == nil || !sh.connected.Load() {
		return HealthDown
	}
	return HealthState(sh.health.Load())
}

// AgentSF returns the master's view of an agent's current subframe
// (lock-free).
func (r *RIB) AgentSF(enb lte.ENBID) (lte.Subframe, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return 0, false
	}
	return lte.Subframe(sh.lastSF.Load()), true
}

// AgentConfig returns an agent's eNodeB configuration.
func (r *RIB) AgentConfig(enb lte.ENBID) (protocol.ENBConfig, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return protocol.ENBConfig{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.config, true
}

// CellStats returns the latest cell statistics.
func (r *RIB) CellStats(enb lte.ENBID, cellID lte.CellID) (protocol.CellStats, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return protocol.CellStats{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c := sh.cells[cellID]
	if c == nil {
		return protocol.CellStats{}, false
	}
	return c.Stats, true
}

// UEStats returns the latest stats of one UE. The returned snapshot is a
// deep copy: the updater overwrites the shard's table in place, so handing
// out aliases would let a later update mutate a reader's snapshot.
func (r *RIB) UEStats(enb lte.ENBID, rnti lte.RNTI) (protocol.UEStats, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return protocol.UEStats{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, c := range sh.cells {
		if u, ok := c.UEs[rnti]; ok {
			var out protocol.UEStats
			sh.statsOf(u, &out)
			return out, true
		}
	}
	return protocol.UEStats{}, false
}

// UEConfigOf returns the identity record of one UE (RNTI/cell/IMSI). The
// IMSI is known once any identity-bearing message arrived — a resync
// StateSnapshot, an A3 measurement report or a handover completion;
// periodic statistics alone never carry it.
func (r *RIB) UEConfigOf(enb lte.ENBID, rnti lte.RNTI) (protocol.UEConfig, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return protocol.UEConfig{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, c := range sh.cells {
		if u, ok := c.UEs[rnti]; ok {
			return u.Config, true
		}
	}
	return protocol.UEConfig{}, false
}

// UEMeas returns the latest A3 measurement report of one UE and the cycle
// it arrived in (ok=false before the first report). Callers must treat the
// report as read-only.
func (r *RIB) UEMeas(enb lte.ENBID, rnti lte.RNTI) (*protocol.MeasReport, lte.Subframe, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return nil, 0, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, c := range sh.cells {
		if u, ok := c.UEs[rnti]; ok && u.Meas != nil {
			return u.Meas, u.MeasSF, true
		}
	}
	return nil, 0, false
}

// UEsOf returns the latest stats of every UE under an agent, ordered by
// RNTI (the snapshot a centralized scheduler works from). Entries are deep
// copies — see UEStats.
func (r *RIB) UEsOf(enb lte.ENBID) []protocol.UEStats {
	return r.AppendUEsOf(enb, nil)
}

// AppendUEsOf is UEsOf into caller-owned scratch: entries are appended to
// dst, reusing the capacity (including per-entry SubbandCQI/LCs scratch)
// of any elements past dst's length from earlier snapshots. A per-tick app
// passing dst[:0] takes its RIB snapshot allocation-free at steady state.
func (r *RIB) AppendUEsOf(enb lte.ENBID, dst []protocol.UEStats) []protocol.UEStats {
	sh := r.shard(enb)
	if sh == nil {
		return dst
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	start := len(dst)
	add := func(u *UERecord) {
		n := len(dst)
		if n < cap(dst) {
			dst = dst[:n+1]
		} else {
			dst = append(dst, protocol.UEStats{})
		}
		sh.statsOf(u, &dst[n])
	}
	// The records that own a row, in table order (a live record's row is
	// the last rowRec entry that resolved to it; a removed record owns
	// none), then the records without one. An agent reports its UEs by
	// RNTI, so at steady state this is already sorted.
	for i, u := range sh.rowRec {
		if u != nil && int(u.row) == i+1 {
			add(u)
		}
	}
	for _, c := range sh.cells {
		for _, u := range c.UEs {
			if u.row == 0 {
				add(u)
			}
		}
	}
	// Swapping whole rows (their slice headers travel with them) needs no
	// closure over out and no reflection, which is what keeps the call
	// allocation-free.
	byRNTI := func(a, b protocol.UEStats) int { return cmp.Compare(a.RNTI, b.RNTI) }
	if out := dst[start:]; !slices.IsSortedFunc(out, byRNTI) {
		slices.SortFunc(out, byRNTI)
	}
	return dst
}

// UECount returns the number of UEs known under an agent (lock-free).
func (r *RIB) UECount(enb lte.ENBID) int {
	sh := r.shard(enb)
	if sh == nil {
		return 0
	}
	return int(sh.ueCount.Load())
}

// Size approximates the RIB's record count (agents + cells + UEs), used by
// the Fig. 8 memory accounting.
func (r *RIB) Size() int {
	topo := r.topo.Load()
	n := 0
	for _, sh := range topo.shards {
		sh.mu.RLock()
		n++
		n += len(sh.cells)
		n += int(sh.ueCount.Load())
		sh.mu.RUnlock()
	}
	return n
}
