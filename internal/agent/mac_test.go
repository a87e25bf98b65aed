package agent

import (
	"slices"
	"sort"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/sched"
)

// nativeKeys is what CachedVSFs lists for a module nothing was installed
// into: every native store entry under both operations.
func nativeKeys() []string {
	var keys []string
	for _, op := range []string{OpDLUESched, OpULUESched} {
		for name := range NativeVSFStore {
			keys = append(keys, op+"/"+name)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestMACBuildsNativeVSFsOnFirstUse pins that a module builds only the
// round robin it runs, builds any other native entry the first time it is
// looked up, and lists the whole native store all along.
func TestMACBuildsNativeVSFsOnFirstUse(t *testing.T) {
	m := NewMACModule()
	if got := len(m.cache); got != 2 {
		t.Errorf("a new module built %d VSFs, want rr for each operation", got)
	}
	if got := m.CachedVSFs(); !slices.Equal(got, nativeKeys()) {
		t.Errorf("CachedVSFs = %v, want %v", got, nativeKeys())
	}
	if err := m.Activate(OpDLUESched, "pf"); err != nil {
		t.Fatal(err)
	}
	pf := m.cache[OpDLUESched+"/pf"]
	if pf == nil || pf.impl.Name() != "pf" || len(m.cache) != 3 {
		t.Fatalf("after activating pf the cache holds %d entries, pf = %+v", len(m.cache), pf)
	}
	if err := m.Activate(OpDLUESched, "rr"); err != nil {
		t.Fatal(err)
	}
	if err := m.Activate(OpDLUESched, "pf"); err != nil {
		t.Fatal(err)
	}
	if m.active[lte.Downlink].Load() != pf {
		t.Error("a second activation of pf built a new entry")
	}
	if err := m.InstallLocal(OpULUESched, "mine", sched.NewMaxCQI()); err != nil {
		t.Fatal(err)
	}
	want := append(nativeKeys(), OpULUESched+"/mine")
	sort.Strings(want)
	if got := m.CachedVSFs(); !slices.Equal(got, want) {
		t.Errorf("CachedVSFs = %v, want %v", got, want)
	}
	if err := m.Activate(OpDLUESched, "nosuchvsf"); err == nil || len(m.cache) != 4 {
		t.Errorf("activating an unknown VSF: err %v, cache of %d", err, len(m.cache))
	}
}

// TestMACDecisionBeforeActivationLands pins that the remote stub is one per
// operation however it is first reached: a decision pushed before the
// remote VSF was ever looked up is applied once it is activated, and the
// stub RemoteStub hands out is the one the remote VSF schedules from.
func TestMACDecisionBeforeActivationLands(t *testing.T) {
	m := NewMACModule()
	allocs := []sched.Alloc{{RNTI: 70, RBCount: 50, MCS: 28}}
	if !m.PushDecision(OpDLUESched, 10, 5, allocs) {
		t.Fatal("decision for a future subframe refused")
	}
	stub := m.RemoteStub(OpDLUESched)
	if err := m.Activate(OpDLUESched, "remote"); err != nil {
		t.Fatal(err)
	}
	if m.cache[OpDLUESched+"/remote"].impl != sched.Scheduler(stub) {
		t.Error("the remote VSF does not schedule from the operation's stub")
	}
	got := m.Schedule(sched.Input{SF: 10, Dir: lte.Downlink, TotalPRB: 50})
	if len(got) != 1 || got[0].RNTI != 70 || got[0].RBCount != 50 {
		t.Errorf("remote VSF at sf 10 scheduled %+v, want the pushed decision", got)
	}
	if applied, _ := m.StubStats(OpDLUESched); applied != 1 {
		t.Errorf("stub applied %d decisions, want 1", applied)
	}
	if m.RemoteStub("nosuchop") != nil || m.PushDecision("nosuchop", 10, 5, allocs) {
		t.Error("an unknown operation has a stub")
	}
}
