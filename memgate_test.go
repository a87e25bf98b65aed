package flexran_test

// Memory-footprint gates for UE and eNodeB state. The order-of-magnitude
// scale target (4096 eNodeBs, 100k+ UEs) only works if per-UE state stays
// compact — the hot per-TTI fields in one record per slot, identity and
// accounting in one cold record, plus a dense RNTI→slot table and the
// ordered slot list — and if an idle eNodeB costs little. These gates
// build large populations and fail the build if the retained heap per UE
// or per eNodeB regresses past budget: the bytes analogue of the alloc
// gates.

import (
	"runtime"
	"testing"
	"time"

	"flexran/internal/enb"
	"flexran/internal/radio"
)

// heapInUse forces a full collection and returns the live heap.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemGateBytesPerUE gates the per-UE retained footprint of one eNodeB
// at scale: 20,000 attached UEs, measured as live-heap growth per UE after
// a full GC. The budget carries headroom over the measured steady state
// (the records and the RNTI table grow by doubling, so the marginal cost
// depends on where growth lands relative to the population). Measured:
// ~172 B/UE (with the 20k population sitting just past a capacity
// doubling, i.e. near the worst case for slack; ~175 B/UE with 13 lanes
// per slot).
func TestMemGateBytesPerUE(t *testing.T) {
	skipUnderRace(t)
	const ues = 20000
	const budgetBytesPerUE = 256

	before := heapInUse()
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	for i := 0; i < ues; i++ {
		if _, err := e.AddUE(enb.UEParams{IMSI: uint64(i + 1), Cell: 0, Channel: radio.Fixed(10)}); err != nil {
			t.Fatal(err)
		}
	}
	perUE := float64(heapInUse()-before) / ues
	t.Logf("retained heap: %.0f B/UE over %d UEs", perUE, ues)
	if perUE > budgetBytesPerUE {
		t.Errorf("per-UE footprint %.0f B exceeds budget %d B", perUE, budgetBytesPerUE)
	}
	if perUE <= 0 {
		t.Error("measurement collapsed to zero; the gate is not measuring anything")
	}
	runtime.KeepAlive(e)
}

// TestMemGateWorldBytesPerUE gates what a UE costs in a whole world rather
// than in the eNodeB lanes alone: the vanilla-sim-shaped 64 x 32 world
// (fading channel and CBR traffic per UE, serial engine) after a few hundred
// TTIs, measured as the retained heap of the whole simulator per UE after a
// full GC. Unlike TestMemGateBytesPerUE it sees the models' own state — the
// channel's random source above all. Measured: ~482 B/UE; the budget leaves
// ~33 % headroom. (~569 B/UE while every eNodeB kept its own scheduler
// working set; ~6,320 B/UE when every model owned a 4.9 KB math/rand
// source; TestNoMathRandV1OutsideBench keeps that source out.)
func TestMemGateWorldBytesPerUE(t *testing.T) {
	skipUnderRace(t)
	const budgetBytesPerUE = 640
	const ues = vanillaENBs * vanillaUEs

	before := heapInUse()
	s := newVanillaSim(t)
	s.Run(300)
	perUE := float64(heapInUse()-before) / ues
	t.Logf("retained heap: %.0f B/UE over %d UEs", perUE, ues)
	if perUE > budgetBytesPerUE {
		t.Errorf("per-UE footprint %.0f B exceeds budget %d B", perUE, budgetBytesPerUE)
	}
	if perUE <= 0 {
		t.Error("measurement collapsed to zero; the gate is not measuring anything")
	}
	runtime.KeepAlive(s)
}

// sparseBudgetBytesPerENB is the per-eNodeB budget of the sparse-world
// gates, at every size.
const sparseBudgetBytesPerENB = 1408

// sparseBytesPerENB builds newSparseSim's world at n eNodeBs, runs it 300
// TTIs and returns the retained heap of the whole simulator per eNodeB
// after a full GC, with the time the build took.
func sparseBytesPerENB(n int) (float64, time.Duration) {
	before := heapInUse()
	start := time.Now()
	s := newSparseWorld(n, false)
	build := time.Since(start)
	s.Run(300)
	perENB := float64(heapInUse()-before) / float64(len(s.Nodes))
	runtime.KeepAlive(s)
	return perENB, build
}

// TestMemGateSparseWorldBytesPerENB gates what an eNodeB costs in the
// sparse 4,096-eNodeB world of newSparseSim (two silent UEs each, one CBR
// UE at every 100th, fast-forward on) after 300 TTIs: the retained heap of
// the whole simulator per eNodeB after a full GC. It holds the engine's
// per-node bookkeeping — node record, awake set, wake calendar — to a
// bounded size beside the eNodeB's own state. Measured: ~1,193 B/eNodeB;
// the budget leaves ~18 % headroom. (~1,563 B/eNodeB while every eNodeB
// kept its own scheduler working set, its hooks inline and its HARQ source
// behind two pointers; ~1,603 B/eNodeB while the ENB struct kept the seed
// and a nil cell list and the cells sat behind pointers; ~2,187 B/eNodeB
// when each UE's hot state was 13 parallel slices, every node carried its
// control-channel state and every eNodeB built both default schedulers up
// front.)
func TestMemGateSparseWorldBytesPerENB(t *testing.T) {
	skipUnderRace(t)
	perENB, _ := sparseBytesPerENB(4096)
	t.Logf("retained heap: %.0f B/eNodeB over 4096 eNodeBs", perENB)
	if perENB > sparseBudgetBytesPerENB {
		t.Errorf("per-eNodeB footprint %.0f B exceeds budget %d B", perENB, sparseBudgetBytesPerENB)
	}
	if perENB <= 0 {
		t.Error("measurement collapsed to zero; the gate is not measuring anything")
	}
}

// TestMemGateSparseWorldLinearAt65536 gates that an eNodeB costs the same
// at 16 times the fleet: the sparse world at 65,536 eNodeBs must read
// within 3 % of the 4,096-eNodeB world per eNodeB, under the same budget,
// so no per-node cost hides in a structure that grows faster than the
// fleet. Measured: ~1,199 B/eNodeB at 65,536 against ~1,193 at 4,096. The
// build time is logged, not gated.
func TestMemGateSparseWorldLinearAt65536(t *testing.T) {
	skipUnderRace(t)
	const maxDrift = 0.03
	small, _ := sparseBytesPerENB(4096)
	large, build := sparseBytesPerENB(65536)
	t.Logf("retained heap: %.0f B/eNodeB over 65536 eNodeBs (built in %v), %.0f B/eNodeB over 4096",
		large, build.Round(time.Millisecond), small)
	if large > sparseBudgetBytesPerENB {
		t.Errorf("per-eNodeB footprint %.0f B exceeds budget %d B", large, sparseBudgetBytesPerENB)
	}
	if drift := large/small - 1; drift > maxDrift || drift < -maxDrift {
		t.Errorf("per-eNodeB footprint %.0f B at 65,536 eNodeBs is %+.1f %% off the %.0f B at 4,096 (limit ±%.0f %%)",
			large, 100*drift, small, 100*maxDrift)
	}
}
