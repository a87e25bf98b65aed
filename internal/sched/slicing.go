package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"flexran/internal/lte"
)

// Slicer partitions the PRB budget among UE groups by configurable shares
// and runs an inner scheduler per group: the RAN-sharing mechanism of the
// Fig. 12 use case (groups = operators for MNO/MVNO slicing, groups =
// priority tiers for premium/secondary scheduling).
//
// Shares are updated at runtime by the master's policy-reconfiguration
// messages; SetShares is safe to call between (not during) Schedule calls,
// mirroring how the agent applies policy between TTIs.
type Slicer struct {
	name   string
	inner  func() Scheduler
	mu     sync.Mutex
	shares []float64
	// workConserving redistributes a group's unused PRBs to other
	// groups. The Fig. 12a experiment runs non-work-conserving so
	// operator throughput tracks the configured quota exactly.
	workConserving bool
	groups         map[int]Scheduler

	// Working set of one Schedule call, reused across TTIs: the input's
	// UEs reordered group by group, the bounds and quota of each group's
	// run in it, and the merged result.
	part []UEInfo
	runs []groupRun
	out  []Alloc
}

// groupRun is one group's share of a Schedule call: its UEs are
// part[lo:hi] and quota its PRB budget.
type groupRun struct {
	group, lo, hi, quota int
}

// NewSlicer builds a slicing scheduler. shares[g] is the PRB fraction of
// group g; they should sum to <= 1 (the remainder goes unused). inner
// constructs the per-group scheduler (one instance per group, so stateful
// inner schedulers keep independent fairness state).
func NewSlicer(name string, shares []float64, workConserving bool, inner func() Scheduler) *Slicer {
	return &Slicer{
		name:           name,
		inner:          inner,
		shares:         append([]float64(nil), shares...),
		workConserving: workConserving,
		groups:         map[int]Scheduler{},
	}
}

// Name implements Scheduler.
func (s *Slicer) Name() string { return s.name }

// SetShares replaces the per-group PRB fractions (policy reconfiguration).
func (s *Slicer) SetShares(shares []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shares = append([]float64(nil), shares...)
}

// Shares returns a copy of the current share vector.
func (s *Slicer) Shares() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.shares...)
}

func (s *Slicer) groupSched(g int) Scheduler {
	sc, ok := s.groups[g]
	if !ok {
		sc = s.inner()
		s.groups[g] = sc
	}
	return sc
}

// Schedule implements Scheduler.
func (s *Slicer) Schedule(in Input) []Alloc {
	s.mu.Lock()
	shares := s.shares
	s.mu.Unlock()

	// Partition UEs by group, ascending, each group keeping the input's
	// UE order; groups beyond the share vector get 0.
	part := append(s.part[:0], in.UEs...)
	s.part = part
	slices.SortStableFunc(part, func(a, b UEInfo) int { return cmp.Compare(a.Group, b.Group) })
	runs := s.runs[:0]
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
	s.runs = runs
	spare := in.TotalPRB - assigned

	out := s.out[:0]
	rbStart := 0
	for _, r := range runs {
		q := r.quota
		if s.workConserving {
			q += spare
		}
		if q == 0 {
			continue
		}
		sub := Input{SF: in.SF, Dir: in.Dir, TotalPRB: q, UEs: part[r.lo:r.hi]}
		allocs := s.groupSched(r.group).Schedule(sub)
		used := 0
		for _, a := range allocs {
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
	s.out = out
	return out
}

// Parametrizable is implemented by schedulers whose behaviour can be tuned
// through the policy-reconfiguration "parameters" section (paper Fig. 3).
type Parametrizable interface {
	// SetParam applies one named parameter. Supported value types are
	// float64, []float64, string and bool, mirroring the yamlite scalar
	// and sequence kinds.
	SetParam(name string, value interface{}) error
}

// SetParam implements Parametrizable for the slicer: the "rb_share"
// parameter replaces the per-group share vector.
func (s *Slicer) SetParam(name string, value interface{}) error {
	switch name {
	case "rb_share", "shares":
		shares, ok := value.([]float64)
		if !ok {
			return fmt.Errorf("sched: %s expects a float sequence, got %T", name, value)
		}
		if err := ValidateShares(shares); err != nil {
			return err
		}
		s.SetShares(shares)
		return nil
	}
	return fmt.Errorf("sched: slicer has no parameter %q", name)
}

// ValidateShares checks a share vector received in a policy document.
func ValidateShares(shares []float64) error {
	sum := 0.0
	for i, f := range shares {
		if f < 0 || f > 1 {
			return fmt.Errorf("sched: share %d = %v out of [0,1]", i, f)
		}
		sum += f
	}
	if sum > 1.0001 {
		return fmt.Errorf("sched: shares sum to %v > 1", sum)
	}
	return nil
}

// RemoteStub is the agent-side stand-in for a centralized scheduler: it
// applies decisions previously pushed by the master for the exact target
// subframe and schedules nothing when no valid decision arrived (the
// missed-deadline behaviour measured in Fig. 9).
//
// The agent's MAC control module feeds pushed decisions via Push and the
// data plane invokes Schedule each TTI like any other VSF.
type RemoteStub struct {
	mu      sync.Mutex
	pending map[lte.Subframe][]Alloc
	applied int
	missed  int
	out     []Alloc // result of the last Schedule, reused
}

// NewRemoteStub returns an empty stub.
func NewRemoteStub() *RemoteStub {
	return &RemoteStub{pending: map[lte.Subframe][]Alloc{}}
}

// Name implements Scheduler.
func (*RemoteStub) Name() string { return "remote" }

// Push stores a decision for a target subframe. Decisions for subframes
// already in the past are dropped (arrived too late to be valid).
func (s *RemoteStub) Push(target, now lte.Subframe, allocs []Alloc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if target < now {
		s.missed++
		return false
	}
	s.pending[target] = allocs
	return true
}

// Schedule implements Scheduler: it applies the decision stored for in.SF.
func (s *RemoteStub) Schedule(in Input) []Alloc {
	s.mu.Lock()
	defer s.mu.Unlock()
	allocs, ok := s.pending[in.SF]
	if !ok {
		s.missed++
		return nil
	}
	delete(s.pending, in.SF)
	s.applied++
	// Clamp to budget defensively: the master may have computed against a
	// stale configuration.
	out := s.out[:0]
	used := 0
	for _, a := range allocs {
		if used+a.RBCount > in.TotalPRB {
			a.RBCount = in.TotalPRB - used
		}
		if a.RBCount <= 0 {
			continue
		}
		a.RBStart = used
		out = append(out, a)
		used += a.RBCount
	}
	// Drop decisions for subframes that have now passed.
	for sf := range s.pending {
		if sf < in.SF {
			delete(s.pending, sf)
			s.missed++
		}
	}
	s.out = out
	return out
}

// Stats reports how many pushed decisions were applied vs missed.
func (s *RemoteStub) Stats() (applied, missed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied, s.missed
}
