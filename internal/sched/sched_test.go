package sched

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"flexran/internal/lte"
)

func mkInput(sf lte.Subframe, prbs int, ues ...UEInfo) Input {
	return Input{SF: sf, Dir: lte.Downlink, TotalPRB: prbs, UEs: ues}
}

// checkInvariants asserts the allocation contract every scheduler must
// honor: disjoint contiguous ranges within [0, TotalPRB), no duplicate
// RNTIs, valid MCS.
func checkInvariants(t *testing.T, in Input, allocs []Alloc) {
	t.Helper()
	used := 0
	seen := map[lte.RNTI]bool{}
	for _, a := range allocs {
		if a.RBCount <= 0 {
			t.Fatalf("empty allocation %+v", a)
		}
		if a.RBStart != used {
			t.Fatalf("non-contiguous allocation %+v (expected start %d)", a, used)
		}
		used += a.RBCount
		if used > in.TotalPRB {
			t.Fatalf("over-allocated: %d > %d", used, in.TotalPRB)
		}
		if seen[a.RNTI] {
			t.Fatalf("RNTI %d allocated twice", a.RNTI)
		}
		seen[a.RNTI] = true
		if a.MCS > lte.MaxMCS {
			t.Fatalf("invalid MCS %d", a.MCS)
		}
	}
}

func TestFillByOrderSizesByNeed(t *testing.T) {
	// UE 1 needs 2 PRBs worth of data, UE 2 is full buffer.
	per := lte.TBSBytes(lte.Downlink, 10, 1)
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 2 * per},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
	)
	allocs := FillByOrder(in, []int{0, 1}, nil)
	checkInvariants(t, in, allocs)
	if len(allocs) != 2 {
		t.Fatalf("allocs = %+v", allocs)
	}
	if allocs[0].RBCount != 2 {
		t.Errorf("UE1 got %d PRBs, want 2", allocs[0].RBCount)
	}
	if allocs[1].RBCount != 48 {
		t.Errorf("UE2 got %d PRBs, want 48", allocs[1].RBCount)
	}
}

func TestFillByOrderSkipsUnservable(t *testing.T) {
	in := mkInput(0, 10,
		UEInfo{RNTI: 1, CQI: 0, QueueBytes: 1000},  // out of range
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 0},    // empty queue
		UEInfo{RNTI: 3, CQI: 5, QueueBytes: 99999}, // servable
	)
	allocs := FillByOrder(in, []int{0, 1, 2}, nil)
	if len(allocs) != 1 || allocs[0].RNTI != 3 {
		t.Fatalf("allocs = %+v", allocs)
	}
	checkInvariants(t, in, allocs)
}

func TestRoundRobinEqualShares(t *testing.T) {
	rr := NewRoundRobin()
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
		UEInfo{RNTI: 3, CQI: 10, QueueBytes: 1 << 20},
		UEInfo{RNTI: 4, CQI: 10, QueueBytes: 1 << 20},
		UEInfo{RNTI: 5, CQI: 10, QueueBytes: 1 << 20},
	)
	allocs := rr.Schedule(in)
	checkInvariants(t, in, allocs)
	if len(allocs) != 5 {
		t.Fatalf("want 5 allocations, got %d", len(allocs))
	}
	for _, a := range allocs {
		if a.RBCount != 10 {
			t.Errorf("RNTI %d got %d PRBs, want 10", a.RNTI, a.RBCount)
		}
	}
}

func TestRoundRobinRotatesRemainder(t *testing.T) {
	rr := NewRoundRobin()
	full := func() Input {
		return mkInput(0, 10,
			UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20},
			UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
			UEInfo{RNTI: 3, CQI: 10, QueueBytes: 1 << 20},
		)
	}
	total := map[lte.RNTI]int{}
	for i := 0; i < 300; i++ {
		for _, a := range rr.Schedule(full()) {
			total[a.RNTI] += a.RBCount
		}
	}
	// 10 PRB / 3 UEs over 300 TTIs: every UE should get 1000 +- rotation.
	for rnti, prbs := range total {
		if prbs < 990 || prbs > 1010 {
			t.Errorf("RNTI %d total = %d, want ~1000", rnti, prbs)
		}
	}
}

func TestRoundRobinSpareReassignment(t *testing.T) {
	// One tiny queue, one full buffer: the spare PRBs of UE1 must flow to
	// UE2 in the same TTI (work conservation).
	per := lte.TBSBytes(lte.Downlink, 10, 1)
	rr := NewRoundRobin()
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: per},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
	)
	allocs := rr.Schedule(in)
	checkInvariants(t, in, allocs)
	got := map[lte.RNTI]int{}
	for _, a := range allocs {
		got[a.RNTI] = a.RBCount
	}
	if got[1] != 1 {
		t.Errorf("UE1 = %d PRBs, want 1", got[1])
	}
	if got[2] != 49 {
		t.Errorf("UE2 = %d PRBs, want 49 (work conservation)", got[2])
	}
}

func TestProportionalFairPrefersUnderserved(t *testing.T) {
	pf := NewProportionalFair()
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, AvgRateKbps: 20000},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20, AvgRateKbps: 100},
	)
	allocs := pf.Schedule(in)
	checkInvariants(t, in, allocs)
	if len(allocs) == 0 || allocs[0].RNTI != 2 {
		t.Fatalf("PF should serve the starved UE first: %+v", allocs)
	}
}

func TestProportionalFairPrefersGoodChannelAtEqualAvg(t *testing.T) {
	pf := NewProportionalFair()
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 4, QueueBytes: 1 << 20, AvgRateKbps: 1000},
		UEInfo{RNTI: 2, CQI: 14, QueueBytes: 1 << 20, AvgRateKbps: 1000},
	)
	allocs := pf.Schedule(in)
	if len(allocs) == 0 || allocs[0].RNTI != 2 {
		t.Fatalf("PF should exploit the better channel: %+v", allocs)
	}
}

func TestMaxCQIOrdering(t *testing.T) {
	m := NewMaxCQI()
	in := mkInput(0, 4,
		UEInfo{RNTI: 1, CQI: 3, QueueBytes: 1 << 20},
		UEInfo{RNTI: 2, CQI: 15, QueueBytes: 1 << 20},
		UEInfo{RNTI: 3, CQI: 9, QueueBytes: 1 << 20},
	)
	allocs := m.Schedule(in)
	checkInvariants(t, in, allocs)
	// Budget exhausted by the best UE.
	if len(allocs) != 1 || allocs[0].RNTI != 2 {
		t.Fatalf("allocs = %+v", allocs)
	}
}

func TestMetricSchedulerNegativeExcludes(t *testing.T) {
	m := NewMetric("test", func(in Input, ue UEInfo) float64 {
		if ue.RNTI == 1 {
			return -1 // excluded
		}
		return float64(ue.CQI)
	})
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 15, QueueBytes: 1 << 20},
		UEInfo{RNTI: 2, CQI: 5, QueueBytes: 1 << 20},
	)
	allocs := m.Schedule(in)
	if len(allocs) != 1 || allocs[0].RNTI != 2 {
		t.Fatalf("allocs = %+v", allocs)
	}
}

func TestSlicerQuotaEnforcement(t *testing.T) {
	// 70/30 split, both groups saturated: allocations must match quota.
	s := NewSlicer("slice", []float64{0.7, 0.3}, false, func() Scheduler { return NewRoundRobin() })
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, Group: 0},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20, Group: 0},
		UEInfo{RNTI: 3, CQI: 10, QueueBytes: 1 << 20, Group: 1},
	)
	allocs := s.Schedule(in)
	checkInvariants(t, in, allocs)
	byGroup := map[int]int{}
	group := map[lte.RNTI]int{1: 0, 2: 0, 3: 1}
	for _, a := range allocs {
		byGroup[group[a.RNTI]] += a.RBCount
	}
	if byGroup[0] != 35 {
		t.Errorf("group 0 = %d PRBs, want 35", byGroup[0])
	}
	if byGroup[1] != 15 {
		t.Errorf("group 1 = %d PRBs, want 15", byGroup[1])
	}
}

func TestSlicerNonWorkConservingWastesUnused(t *testing.T) {
	// Group 1 idle: its quota must NOT flow to group 0.
	s := NewSlicer("slice", []float64{0.5, 0.5}, false, func() Scheduler { return NewRoundRobin() })
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, Group: 0},
	)
	allocs := s.Schedule(in)
	total := 0
	for _, a := range allocs {
		total += a.RBCount
	}
	if total != 25 {
		t.Errorf("allocated %d PRBs, want 25 (strict quota)", total)
	}
}

func TestSlicerWorkConservingRedistributes(t *testing.T) {
	s := NewSlicer("slice", []float64{0.5, 0.5}, true, func() Scheduler { return NewRoundRobin() })
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, Group: 1},
	)
	allocs := s.Schedule(in)
	total := 0
	for _, a := range allocs {
		total += a.RBCount
	}
	if total != 50 {
		t.Errorf("allocated %d PRBs, want 50 (work conserving)", total)
	}
}

func TestSlicerSetShares(t *testing.T) {
	s := NewSlicer("slice", []float64{0.7, 0.3}, false, func() Scheduler { return NewRoundRobin() })
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, Group: 0},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20, Group: 1},
	)
	s.SetShares([]float64{0.4, 0.6})
	allocs := s.Schedule(in)
	got := map[lte.RNTI]int{}
	for _, a := range allocs {
		got[a.RNTI] += a.RBCount
	}
	if got[1] != 20 || got[2] != 30 {
		t.Errorf("shares after reconfig = %v, want 20/30", got)
	}
	if sh := s.Shares(); sh[0] != 0.4 || sh[1] != 0.6 {
		t.Errorf("Shares() = %v", sh)
	}
}

func TestValidateShares(t *testing.T) {
	if err := ValidateShares([]float64{0.7, 0.3}); err != nil {
		t.Errorf("valid shares rejected: %v", err)
	}
	if err := ValidateShares([]float64{0.8, 0.4}); err == nil {
		t.Error("sum > 1 accepted")
	}
	if err := ValidateShares([]float64{-0.1}); err == nil {
		t.Error("negative share accepted")
	}
	if err := ValidateShares([]float64{1.5}); err == nil {
		t.Error("share > 1 accepted")
	}
}

func TestRemoteStubAppliesExactSubframe(t *testing.T) {
	st := NewRemoteStub()
	decision := []Alloc{{RNTI: 1, RBCount: 10, MCS: 15}}
	if !st.Push(100, 95, decision) {
		t.Fatal("push for future subframe rejected")
	}
	in := mkInput(99, 50, UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20})
	if got := st.Schedule(in); got != nil {
		t.Fatalf("applied at wrong subframe: %+v", got)
	}
	in.SF = 100
	got := st.Schedule(in)
	if len(got) != 1 || got[0].RNTI != 1 || got[0].RBCount != 10 {
		t.Fatalf("decision not applied: %+v", got)
	}
	applied, missed := st.Stats()
	if applied != 1 || missed != 1 {
		t.Errorf("stats = %d applied, %d missed", applied, missed)
	}
}

func TestRemoteStubRejectsLateDecisions(t *testing.T) {
	st := NewRemoteStub()
	if st.Push(50, 60, []Alloc{{RNTI: 1, RBCount: 5}}) {
		t.Error("late push accepted")
	}
	_, missed := st.Stats()
	if missed != 1 {
		t.Errorf("missed = %d, want 1", missed)
	}
}

func TestRemoteStubClampsOversizedDecision(t *testing.T) {
	st := NewRemoteStub()
	st.Push(10, 0, []Alloc{
		{RNTI: 1, RBCount: 40, MCS: 10},
		{RNTI: 2, RBCount: 40, MCS: 10},
	})
	in := mkInput(10, 50, UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1}, UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1})
	allocs := st.Schedule(in)
	total := 0
	for _, a := range allocs {
		total += a.RBCount
	}
	if total != 50 {
		t.Errorf("clamped total = %d, want 50", total)
	}
}

func TestPropertySchedulersNeverOverAllocate(t *testing.T) {
	scheds := []func() Scheduler{
		func() Scheduler { return NewRoundRobin() },
		func() Scheduler { return NewProportionalFair() },
		func() Scheduler { return NewMaxCQI() },
		func() Scheduler {
			return NewSlicer("s", []float64{0.5, 0.5}, true, func() Scheduler { return NewRoundRobin() })
		},
	}
	f := func(seed uint32, nUE uint8, prbs uint8) bool {
		n := int(nUE%20) + 1
		total := int(prbs%100) + 1
		in := Input{SF: lte.Subframe(seed), Dir: lte.Downlink, TotalPRB: total}
		x := seed
		for i := 0; i < n; i++ {
			x = x*1664525 + 1013904223
			in.UEs = append(in.UEs, UEInfo{
				RNTI:        lte.RNTI(i + 1),
				CQI:         lte.CQI(x % 16),
				QueueBytes:  int(x % 100000),
				AvgRateKbps: float64(x % 10000),
				Group:       int(x % 2),
			})
		}
		for _, mk := range scheds {
			used := 0
			starts := map[int]bool{}
			for _, a := range mk().Schedule(in) {
				if a.RBCount <= 0 || a.RBStart < 0 || a.RBStart+a.RBCount > total {
					return false
				}
				for rb := a.RBStart; rb < a.RBStart+a.RBCount; rb++ {
					if starts[rb] {
						return false // overlap
					}
					starts[rb] = true
				}
				used += a.RBCount
			}
			if used > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Reference implementations: the scheduler bodies as they stood before the
// working set moved onto the scheduler — a fresh index, a fresh result and
// (Metric, Slicer) fresh maps per call, sort.Slice/SliceStable with the key
// computed inside the comparator. They are the oracle for the equivalence
// tests below: same keys, same stable order, same tie-breaks.

type refScheduler interface{ Schedule(in Input) []Alloc }

func refBacklogged(in Input) []int {
	var idx []int
	for i, ue := range in.UEs {
		if ue.QueueBytes > 0 && ue.CQI > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		return in.UEs[idx[a]].RNTI < in.UEs[idx[b]].RNTI
	})
	return idx
}

func refFillByOrder(in Input, order []int) []Alloc {
	var out []Alloc
	rbStart := 0
	left := in.TotalPRB
	for _, idx := range order {
		if left == 0 {
			break
		}
		ue := in.UEs[idx]
		per := bytesPerPRB(in.Dir, ue.CQI)
		if ue.QueueBytes <= 0 || per == 0 {
			continue
		}
		n := (ue.QueueBytes + per - 1) / per
		if n > left {
			n = left
		}
		out = append(out, Alloc{RNTI: ue.RNTI, RBStart: rbStart, RBCount: n, MCS: lte.MCSForCQI(ue.CQI)})
		rbStart += n
		left -= n
	}
	return out
}

type refRoundRobin struct{ rot int }

func (s *refRoundRobin) Schedule(in Input) []Alloc {
	idx := refBacklogged(in)
	if len(idx) == 0 {
		return nil
	}
	share := in.TotalPRB / len(idx)
	extra := in.TotalPRB % len(idx)
	var out []Alloc
	rbStart := 0
	spare := 0
	for pos := range idx {
		ue := in.UEs[idx[(pos+s.rot)%len(idx)]]
		quota := share
		if pos < extra {
			quota++
		}
		// The one departure from the old body, which divided by zero here
		// for an uplink UE at CQI 1 (no whole byte per PRB).
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
		out = append(out, Alloc{RNTI: ue.RNTI, RBStart: rbStart, RBCount: n, MCS: lte.MCSForCQI(ue.CQI)})
		rbStart += n
	}
	s.rot++
	return out
}

type refPF struct{}

func (refPF) Schedule(in Input) []Alloc {
	idx := refBacklogged(in)
	sort.SliceStable(idx, func(a, b int) bool {
		return pfMetric(in, &in.UEs[idx[a]]) > pfMetric(in, &in.UEs[idx[b]])
	})
	return refFillByOrder(in, idx)
}

type refMaxCQI struct{}

func (refMaxCQI) Schedule(in Input) []Alloc {
	idx := refBacklogged(in)
	sort.SliceStable(idx, func(a, b int) bool {
		return in.UEs[idx[a]].CQI > in.UEs[idx[b]].CQI
	})
	return refFillByOrder(in, idx)
}

type refMetric struct{ fn MetricFunc }

func (m refMetric) Schedule(in Input) []Alloc {
	idx := refBacklogged(in)
	scores := make(map[int]float64, len(idx))
	for _, i := range idx {
		scores[i] = m.fn(in, in.UEs[i])
	}
	kept := idx[:0]
	for _, i := range idx {
		if scores[i] >= 0 {
			kept = append(kept, i)
		}
	}
	sort.SliceStable(kept, func(a, b int) bool {
		return scores[kept[a]] > scores[kept[b]]
	})
	return refFillByOrder(in, kept)
}

type refSlicer struct {
	shares         []float64
	workConserving bool
	inner          func() refScheduler
	groups         map[int]refScheduler
}

func (s *refSlicer) Schedule(in Input) []Alloc {
	byGroup := map[int][]UEInfo{}
	for _, ue := range in.UEs {
		byGroup[ue.Group] = append(byGroup[ue.Group], ue)
	}
	groups := make([]int, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	quota := make(map[int]int, len(groups))
	assigned := 0
	for _, g := range groups {
		var q int
		if g >= 0 && g < len(s.shares) {
			q = int(s.shares[g]*float64(in.TotalPRB) + 0.5)
		}
		if assigned+q > in.TotalPRB {
			q = in.TotalPRB - assigned
		}
		quota[g] = q
		assigned += q
	}
	spare := in.TotalPRB - assigned
	var out []Alloc
	rbStart := 0
	for _, g := range groups {
		q := quota[g]
		if s.workConserving {
			q += spare
		}
		if q == 0 {
			continue
		}
		sc, ok := s.groups[g]
		if !ok {
			sc = s.inner()
			s.groups[g] = sc
		}
		used := 0
		for _, a := range sc.Schedule(Input{SF: in.SF, Dir: in.Dir, TotalPRB: q, UEs: byGroup[g]}) {
			a.RBStart = rbStart + used
			out = append(out, a)
			used += a.RBCount
		}
		if s.workConserving {
			spare = q - used
			if spare < 0 {
				spare = 0
			}
		}
		rbStart += used
	}
	return out
}

// edgeMetric is the Metric under test: negative for some UEs (excluded),
// heavily tied for the rest.
func edgeMetric(in Input, ue UEInfo) float64 {
	if ue.RNTI%5 == 0 {
		return -1
	}
	return float64(int(ue.CQI)/4) + float64(in.SF%2)
}

// schedPairs lists every scheduler of the package next to its reference.
// Both sides of a pair are fresh and see the same input sequence.
var schedPairs = []struct {
	name string
	mk   func() (Scheduler, refScheduler)
}{
	{"rr", func() (Scheduler, refScheduler) { return NewRoundRobin(), &refRoundRobin{} }},
	{"pf", func() (Scheduler, refScheduler) { return NewProportionalFair(), refPF{} }},
	{"maxcqi", func() (Scheduler, refScheduler) { return NewMaxCQI(), refMaxCQI{} }},
	{"metric", func() (Scheduler, refScheduler) { return NewMetric("edge", edgeMetric), refMetric{edgeMetric} }},
	{"slicer-rr", func() (Scheduler, refScheduler) {
		shares := []float64{0.5, 0.3, 0.2}
		return NewSlicer("s", shares, false, func() Scheduler { return NewRoundRobin() }),
			&refSlicer{shares: shares, inner: func() refScheduler { return &refRoundRobin{} }, groups: map[int]refScheduler{}}
	}},
	{"slicer-pf-wc", func() (Scheduler, refScheduler) {
		shares := []float64{0.6, 0.2}
		return NewSlicer("s", shares, true, func() Scheduler { return NewProportionalFair() }),
			&refSlicer{shares: shares, workConserving: true, inner: func() refScheduler { return refPF{} }, groups: map[int]refScheduler{}}
	}},
}

// randomInput draws one scheduling invocation from the corners the
// schedulers branch on: unsorted (and occasionally duplicate) RNTIs, CQI 0,
// empty and one-byte queues, averages that tie, groups beyond and below the
// share vector, a PRB budget of 0 or 1.
func randomInput(rnd *rand.Rand, sf lte.Subframe) Input {
	in := Input{
		SF:       sf,
		Dir:      lte.Direction(rnd.Intn(2)),
		TotalPRB: []int{0, 1, 6, 25, 50, 100}[rnd.Intn(6)],
	}
	n := rnd.Intn(41)
	for i := 0; i < n; i++ {
		in.UEs = append(in.UEs, UEInfo{
			RNTI:        lte.FirstUERNTI + lte.RNTI(2*i),
			CQI:         lte.CQI(rnd.Intn(16)),
			QueueBytes:  []int{0, 1, 700, 15000, 1 << 20}[rnd.Intn(5)],
			AvgRateKbps: []float64{0, 0.5, 100, 100, 9000, rnd.Float64() * 20000}[rnd.Intn(6)],
			LastSched:   sf - lte.Subframe(rnd.Intn(30)),
			Group:       rnd.Intn(6) - 1,
		})
	}
	switch rnd.Intn(4) {
	case 0: // any order
		rnd.Shuffle(n, func(i, j int) { in.UEs[i], in.UEs[j] = in.UEs[j], in.UEs[i] })
	case 1: // one pair out of order, and one RNTI reported twice
		if n >= 2 {
			i := rnd.Intn(n - 1)
			in.UEs[i], in.UEs[i+1] = in.UEs[i+1], in.UEs[i]
			in.UEs[rnd.Intn(n)].RNTI = in.UEs[rnd.Intn(n)].RNTI
		}
	}
	return in
}

// TestSchedulersMatchReference is the licence for the scheduler-owned
// working set: over seeded random inputs — 50 consecutive TTIs per scheduler
// instance, so rotation and per-group state carry — every scheduler returns
// exactly what its allocate-per-call predecessor returned.
func TestSchedulersMatchReference(t *testing.T) {
	const instances, ttis = 60, 50 // 3,000 inputs per scheduler
	for _, p := range schedPairs {
		t.Run(p.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(22))
			for inst := 0; inst < instances; inst++ {
				got, want := p.mk()
				for tti := 0; tti < ttis; tti++ {
					in := randomInput(rnd, lte.Subframe(1000*inst+tti+40))
					before := slices.Clone(in.UEs)
					a := got.Schedule(in)
					if !slices.Equal(in.UEs, before) {
						t.Fatalf("instance %d TTI %d: Schedule modified in.UEs", inst, tti)
					}
					if b := want.Schedule(in); !slices.Equal(a, b) {
						t.Fatalf("instance %d TTI %d (%d UEs, %d PRBs):\n got %+v\nwant %+v", inst, tti, len(in.UEs), in.TotalPRB, a, b)
					}
				}
			}
		})
	}
}

// TestScheduleResultValidUntilNextCall pins the two halves of the result
// rule: a result stays intact while the caller scribbles over the input it
// came from and while other schedulers of the same type run, and it is the
// next call on the same scheduler — nothing earlier — that reuses it.
func TestScheduleResultValidUntilNextCall(t *testing.T) {
	for _, p := range schedPairs {
		t.Run(p.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(7))
			s, ref := p.mk()
			other, _ := p.mk()
			for round := 0; round < 200; round++ {
				in := randomInput(rnd, lte.Subframe(round+40))
				res := s.Schedule(in)
				want := ref.Schedule(in)
				for i := range in.UEs {
					in.UEs[i] = UEInfo{RNTI: 1, CQI: 15, QueueBytes: 1 << 30} // not retained: no effect
				}
				other.Schedule(randomInput(rnd, in.SF))
				if !slices.Equal(res, want) {
					t.Fatalf("round %d: result changed before the next call:\n got %+v\nwant %+v", round, res, want)
				}
			}
			// Two busy TTIs in a row: the second result lives where the
			// first one did.
			busy := mkInput(1, 50,
				UEInfo{RNTI: 70, CQI: 9, QueueBytes: 1 << 20, Group: 0},
				UEInfo{RNTI: 71, CQI: 12, QueueBytes: 1 << 20, Group: 1},
			)
			first := s.Schedule(busy)
			second := s.Schedule(busy)
			if len(first) == 0 || len(second) == 0 || &first[0] != &second[0] {
				t.Fatalf("the next call did not reuse the result's storage: %p %p", first, second)
			}
		})
	}
}

// TestSchedulersIndependentAcrossGoroutines runs two schedulers of each
// type concurrently (one per eNodeB is the deployment rule): no state may
// be shared between instances. Meaningful under -race.
func TestSchedulersIndependentAcrossGoroutines(t *testing.T) {
	for _, p := range schedPairs {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(seed))
				got, want := p.mk()
				for tti := 0; tti < 300; tti++ {
					in := randomInput(rnd, lte.Subframe(tti+40))
					if a, b := got.Schedule(in), want.Schedule(in); !slices.Equal(a, b) {
						t.Errorf("%s seed %d TTI %d:\n got %+v\nwant %+v", p.name, seed, tti, a, b)
						return
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
	}
}

// TestAllocGateSchedulers gates the working set: once warm, no scheduler of
// the package allocates in Schedule — wrappers and the remote stub with a
// decision pushed every TTI included. (Measured: 0 allocs/op each.)
func TestAllocGateSchedulers(t *testing.T) {
	in := Input{Dir: lte.Downlink, TotalPRB: 50}
	for i := 0; i < 32; i++ {
		in.UEs = append(in.UEs, UEInfo{
			RNTI: lte.FirstUERNTI + lte.RNTI(i), CQI: lte.CQI(1 + i%15), QueueBytes: 400 + 900*(i%7),
			AvgRateKbps: float64(100 * (i % 9)), Group: i % 3,
		})
	}
	abs := ABSPattern(4)
	stub := NewRemoteStub()
	decision := []Alloc{{RNTI: 70, RBCount: 30, MCS: 10}, {RNTI: 71, RBCount: 30, MCS: 12}}
	gated := []struct {
		s      Scheduler
		pushed bool // the master pushes a decision for every subframe
	}{
		{s: NewRoundRobin()}, {s: NewProportionalFair()}, {s: NewMaxCQI()}, {s: NewMetric("edge", edgeMetric)},
		{s: NewSlicer("s", []float64{0.5, 0.3, 0.2}, true, func() Scheduler { return NewProportionalFair() })},
		{s: NewABSGate("gate", abs, NewRoundRobin())},
		{s: NewABSSwitch("switch", abs, NewRoundRobin(), stub), pushed: true},
		{s: stub, pushed: true},
	}
	for _, g := range gated {
		s := g.s
		scheduled := 0
		op := func() {
			in.SF++
			if g.pushed {
				stub.Push(in.SF, in.SF, decision)
			}
			scheduled += len(s.Schedule(in))
		}
		for i := 0; i < 100; i++ {
			op()
		}
		if got := testing.AllocsPerRun(1000, op); got != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", s.Name(), got)
		}
		if scheduled == 0 {
			t.Errorf("%s never scheduled anything: the gate measured nothing", s.Name())
		}
	}
}

// sortPartition is the Slicer's partition as it was before the per-group
// passes: the input stable-sorted by group, then one run per group with its
// quota.
func sortPartition(in Input, shares []float64) ([]UEInfo, []groupRun) {
	part := slices.Clone(in.UEs)
	slices.SortStableFunc(part, func(a, b UEInfo) int { return cmp.Compare(a.Group, b.Group) })
	var runs []groupRun
	assigned := 0
	for lo := 0; lo < len(part); {
		g := part[lo].Group
		hi := lo + 1
		for hi < len(part) && part[hi].Group == g {
			hi++
		}
		var q int
		if g >= 0 && g < len(shares) {
			q = int(shares[g]*float64(in.TotalPRB) + 0.5)
		}
		if assigned+q > in.TotalPRB {
			q = in.TotalPRB - assigned
		}
		runs = append(runs, groupRun{group: g, lo: lo, hi: hi, quota: q})
		assigned += q
		lo = hi
	}
	return part, runs
}

// The Slicer's one-pass-per-group partition is the stable sort by group it
// replaced: the same UE order and the same runs and quotas, over random
// groups, negative groups, groups beyond the share vector, a single group
// and empty input, on one slicer whose working set carries across calls.
func TestSlicerPartitionMatchesStableSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(36))
	shares := []float64{0.5, 0.3, 0.2}
	s := NewSlicer("s", shares, true, func() Scheduler { return NewRoundRobin() })
	for it := 0; it < 3000; it++ {
		in := randomInput(rnd, lte.Subframe(it))
		for i := range in.UEs {
			u := &in.UEs[i]
			switch it % 5 {
			case 0:
				u.Group = 2 // a single group
			case 1:
				u.Group = -1 - rnd.Intn(4) // negative groups only
			case 2:
				u.Group = rnd.Intn(1<<20) - 1<<19 // sparse, far beyond the shares
			case 3:
				u.Group = len(shares) + rnd.Intn(3) // beyond the share vector only
			}
		}
		if it%7 == 0 {
			in.UEs = nil
		}
		before := slices.Clone(in.UEs)
		s.Schedule(in)
		if !slices.Equal(in.UEs, before) {
			t.Fatalf("input %d: Schedule modified its input", it)
		}
		wantPart, wantRuns := sortPartition(in, shares)
		if !slices.Equal(s.part, wantPart) {
			t.Fatalf("input %d: partition\n got %+v\nwant %+v", it, s.part, wantPart)
		}
		if !slices.Equal(s.runs, wantRuns) {
			t.Fatalf("input %d: runs %+v, want %+v", it, s.runs, wantRuns)
		}
	}
}
