// Package sched implements the MAC scheduling algorithms used throughout
// the reproduction: the local VSF schedulers at the agent (round-robin,
// proportional fair), the centralized schedulers of the master's
// applications, and the RAN-sharing schedulers of the Fig. 12 use case
// (per-operator slicing with fair and group-based policies).
//
// Schedulers are pure with respect to the data plane: they map an Input
// snapshot (backlogged UEs with channel state) to a list of allocations.
// Every scheduler value owns the working set of its own Schedule calls
// (index, key and result slices in a Workset, reused across TTIs), and
// some keep fairness state (rotation pointers), which is explicitly
// documented per type. The eNodeB's default round robin holds neither: it
// keeps only its rotation and runs ScheduleRoundRobin on a Workset it
// shares with every eNodeB of its engine, so the working set is one per
// engine rather than one per eNodeB.
package sched

import (
	"slices"

	"flexran/internal/lte"
)

// UEInfo is the per-UE scheduler input.
type UEInfo struct {
	RNTI lte.RNTI
	// CQI is the latest reported wideband CQI (possibly stale when the
	// scheduler runs remotely; the data plane checks deliverability).
	CQI lte.CQI
	// QueueBytes is the pending RLC transmission queue (DL) or buffer
	// status report (UL).
	QueueBytes int
	// AvgRateKbps is the long-term served rate, maintained by the MAC;
	// the proportional-fair metric divides by it.
	AvgRateKbps float64
	// LastSched is the last subframe this UE was allocated.
	LastSched lte.Subframe
	// Group labels the UE's slice/tier for quota-based schedulers
	// (operator index for RAN sharing, priority tier for group-based).
	Group int
}

// Input is one scheduling invocation: a subframe, a PRB budget and the
// candidate UEs.
type Input struct {
	SF       lte.Subframe
	Dir      lte.Direction
	TotalPRB int
	UEs      []UEInfo
}

// Alloc is one UE's scheduled allocation.
type Alloc struct {
	RNTI    lte.RNTI
	RBStart int
	RBCount int
	MCS     lte.MCS
}

// Scheduler maps an input snapshot to allocations. Implementations must
// never allocate more than Input.TotalPRB resource blocks in total and
// must keep allocations disjoint.
//
// A Scheduler is not safe for concurrent use, and the slice Schedule
// returns is valid until the next Schedule call on the same value: the
// schedulers of this package keep their working set, result included, on
// the scheduler and reuse it every TTI. One instance therefore serves one
// cell direction (or one application loop); callers consume or copy the
// result before asking again. The same rule holds the other way round for
// Input.UEs, which a scheduler must neither retain nor modify.
type Scheduler interface {
	// Name identifies the scheduler (used as VSF cache keys and in
	// policy documents).
	Name() string
	Schedule(in Input) []Alloc
}

// bytesPerPRB returns the per-PRB transport capacity for a UE, 0 when the
// UE cannot be served (CQI 0).
func bytesPerPRB(dir lte.Direction, c lte.CQI) int {
	return lte.TBSBytes(dir, c, 1)
}

// Workset is a scheduler working set: the backlogged index, one priority
// key per Input.UEs entry and the result, all reused from call to call so
// a steady-state Schedule allocates nothing. The zero value is ready to
// use. A result lives in its Workset, so it is valid until the next call
// that runs on the same Workset.
type Workset struct {
	idx  []int
	keys []float64
	out  []Alloc
}

// FillByOrder allocates PRBs to UEs in the given priority order (indices
// into in.UEs), appending to out. Each UE receives just enough PRBs to
// drain its queue this TTI, and the remainder flows to the next UE — a
// work-conserving greedy fill used by every priority-ordered scheduler in
// this package.
func FillByOrder(in Input, order []int, out []Alloc) []Alloc {
	rbStart := 0
	left := in.TotalPRB
	for _, idx := range order {
		if left == 0 {
			break
		}
		ue := &in.UEs[idx]
		per := bytesPerPRB(in.Dir, ue.CQI)
		if ue.QueueBytes <= 0 || per == 0 {
			continue
		}
		need := (ue.QueueBytes + per - 1) / per
		n := need
		if n > left {
			n = left
		}
		out = append(out, Alloc{
			RNTI:    ue.RNTI,
			RBStart: rbStart,
			RBCount: n,
			MCS:     lte.MCSForCQI(ue.CQI),
		})
		rbStart += n
		left -= n
	}
	return out
}

// backlogged fills w.idx with the indices of servable UEs (non-empty
// queue, CQI>0) in ascending RNTI order, for determinism. Both producers
// of an Input (the eNodeB's snapshot and the RIB's) already deliver RNTI
// order, so the sort runs only for a caller that did not.
func (w *Workset) backlogged(in Input) []int {
	idx := w.idx[:0]
	ascending := true
	var prev lte.RNTI
	for i := range in.UEs {
		ue := &in.UEs[i]
		if ue.QueueBytes > 0 && ue.CQI > 0 {
			if ue.RNTI < prev {
				ascending = false
			}
			prev = ue.RNTI
			idx = append(idx, i)
		}
	}
	if !ascending {
		slices.SortFunc(idx, func(a, b int) int { return int(in.UEs[a].RNTI) - int(in.UEs[b].RNTI) })
	}
	w.idx = idx
	return idx
}

// fillByKey orders idx by descending w.keys (indexed like in.UEs), ties
// keeping their RNTI order, and greedily fills in that order.
func (w *Workset) fillByKey(in Input, idx []int) []Alloc {
	keys := w.keys
	// Not cmp.Compare: it orders NaN first, and a NaN key must stay what
	// it always was under ">" — incomparable, so left where it stands.
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case keys[a] > keys[b]:
			return -1
		case keys[a] < keys[b]:
			return 1
		}
		return 0
	})
	w.out = FillByOrder(in, idx, w.out[:0])
	return w.out
}

// sizeKeys returns w.keys with room for one key per in.UEs entry.
func (w *Workset) sizeKeys(in Input) []float64 {
	w.keys = slices.Grow(w.keys[:0], len(in.UEs))[:len(in.UEs)]
	return w.keys
}

// RoundRobin is the fair equal-share scheduler: every backlogged UE gets
// an equal PRB share each TTI, with the integer remainder rotating across
// TTIs so long-run shares equalize. This is the "fair scheduling policy"
// of the Fig. 12b MNO.
type RoundRobin struct {
	rot int // rotation offset for remainder distribution
	ws  Workset
}

// NewRoundRobin returns a fair equal-share scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "rr" }

// Schedule implements Scheduler.
func (s *RoundRobin) Schedule(in Input) []Alloc { return ScheduleRoundRobin(in, &s.rot, &s.ws) }

// ScheduleRoundRobin is the round-robin algorithm with its state held by
// the caller: *rot is the rotation offset, advanced once per call that
// finds a backlogged UE, and w is the working set the result lives in.
// RoundRobin.Schedule is this call on the scheduler's own rotation and
// Workset; a caller that keeps only a rotation can run many round robins
// on one Workset.
func ScheduleRoundRobin(in Input, rot *int, w *Workset) []Alloc {
	idx := w.backlogged(in)
	if len(idx) == 0 {
		return nil
	}
	share := in.TotalPRB / len(idx)
	extra := in.TotalPRB % len(idx)
	out := w.out[:0]
	rbStart := 0
	spare := 0 // PRBs returned by UEs that need less than their share
	// Rotate so the +1 remainder moves across UEs over time.
	at := *rot % len(idx)
	for pos := range idx {
		ue := &in.UEs[idx[at]]
		if at++; at == len(idx) {
			at = 0
		}
		quota := share
		if pos < extra {
			quota++
		}
		// One uplink PRB at CQI 1 carries less than a byte: such a UE
		// needs nothing and its quota flows on as spare.
		need := 0
		if per := bytesPerPRB(in.Dir, ue.CQI); per > 0 {
			need = (ue.QueueBytes + per - 1) / per
		}
		n := quota + spare
		if n > need {
			spare = n - need
			n = need
		} else {
			spare = 0
		}
		if n == 0 {
			continue
		}
		out = append(out, Alloc{
			RNTI:    ue.RNTI,
			RBStart: rbStart,
			RBCount: n,
			MCS:     lte.MCSForCQI(ue.CQI),
		})
		rbStart += n
	}
	*rot++
	w.out = out
	return out
}

// ProportionalFair ranks UEs by instantaneous-rate over average-rate, the
// classic PF metric, then greedily fills. The average rate is supplied by
// the MAC in UEInfo.AvgRateKbps.
type ProportionalFair struct{ ws Workset }

// NewProportionalFair returns a PF scheduler.
func NewProportionalFair() *ProportionalFair { return &ProportionalFair{} }

// Name implements Scheduler.
func (*ProportionalFair) Name() string { return "pf" }

// Schedule implements Scheduler.
func (s *ProportionalFair) Schedule(in Input) []Alloc {
	idx := s.ws.backlogged(in)
	keys := s.ws.sizeKeys(in)
	for _, i := range idx {
		keys[i] = pfMetric(in, &in.UEs[i])
	}
	return s.ws.fillByKey(in, idx)
}

func pfMetric(in Input, ue *UEInfo) float64 {
	inst := float64(lte.TBSBits(in.Dir, ue.CQI, in.TotalPRB)) // bits/TTI
	avg := ue.AvgRateKbps
	if avg < 1 {
		avg = 1 // unserved UEs get maximal priority
	}
	return inst / avg
}

// MaxCQI always serves the best channel first (maximum-throughput,
// fairness-free; the baseline that motivates PF).
type MaxCQI struct{ ws Workset }

// NewMaxCQI returns a max-CQI scheduler.
func NewMaxCQI() *MaxCQI { return &MaxCQI{} }

// Name implements Scheduler.
func (*MaxCQI) Name() string { return "maxcqi" }

// Schedule implements Scheduler.
func (s *MaxCQI) Schedule(in Input) []Alloc {
	idx := s.ws.backlogged(in)
	keys := s.ws.sizeKeys(in)
	for _, i := range idx {
		keys[i] = float64(in.UEs[i].CQI)
	}
	return s.ws.fillByKey(in, idx)
}

// MetricFunc scores one UE; higher runs first. UEs scoring negative are
// not scheduled at all.
type MetricFunc func(in Input, ue UEInfo) float64

// Metric is the generic priority scheduler: it orders backlogged UEs by a
// caller-supplied metric and greedily fills. The agent uses it to execute
// vsfdsl programs pushed by the master (VSF updation), closing the paper's
// code-push loop.
type Metric struct {
	name string
	fn   MetricFunc
	ws   Workset
}

// NewMetric builds a metric scheduler.
func NewMetric(name string, fn MetricFunc) *Metric {
	return &Metric{name: name, fn: fn}
}

// Name implements Scheduler.
func (m *Metric) Name() string { return m.name }

// Schedule implements Scheduler.
func (m *Metric) Schedule(in Input) []Alloc {
	idx := m.ws.backlogged(in)
	keys := m.ws.sizeKeys(in)
	kept := idx[:0]
	for _, i := range idx {
		if keys[i] = m.fn(in, in.UEs[i]); keys[i] >= 0 {
			kept = append(kept, i)
		}
	}
	return m.ws.fillByKey(in, kept)
}
