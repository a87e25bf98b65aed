package flexran_test

// Memory-footprint gate for the struct-of-arrays UE state. The
// order-of-magnitude scale target (4096 eNodeBs, 100k+ UEs) only works if
// per-UE state stays compact: the hot per-TTI fields live in dense
// parallel lanes, identity/accounting in one cold record, plus a dense
// RNTI→slot table and the ordered slot list. This gate attaches a large
// population and fails the build if the retained heap per UE regresses
// past budget — the bytes/UE analogue of the alloc gates.

import (
	"runtime"
	"testing"

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
// (lanes and the RNTI table grow by doubling, so the marginal cost depends
// on where growth lands relative to the population). Measured: ~175 B/UE
// (with the 20k population sitting just past a capacity doubling, i.e. near
// the worst case for slack).
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
// channel's random source above all. Measured: ~581 B/UE; the budget leaves
// ~32 % headroom. (~6,320 B/UE when every model owned a 4.9 KB math/rand
// source.)
func TestMemGateWorldBytesPerUE(t *testing.T) {
	skipUnderRace(t)
	const budgetBytesPerUE = 768
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

// TestMemGateSparseWorldBytesPerENB gates what an eNodeB costs in the
// sparse 4,096-eNodeB world of newSparseSim (two silent UEs each, one CBR
// UE at every 100th, fast-forward on) after 300 TTIs: the retained heap of
// the whole simulator per eNodeB after a full GC. It holds the engine's
// per-node bookkeeping — node record, awake set, wake calendar — to a
// bounded size beside the eNodeB's own state. Measured: ~2,187 B/eNodeB;
// the budget leaves ~17 % headroom.
func TestMemGateSparseWorldBytesPerENB(t *testing.T) {
	skipUnderRace(t)
	const budgetBytesPerENB = 2560

	before := heapInUse()
	s := newSparseSim(false)
	s.Run(300)
	perENB := float64(heapInUse()-before) / float64(len(s.Nodes))
	t.Logf("retained heap: %.0f B/eNodeB over %d eNodeBs", perENB, len(s.Nodes))
	if perENB > budgetBytesPerENB {
		t.Errorf("per-eNodeB footprint %.0f B exceeds budget %d B", perENB, budgetBytesPerENB)
	}
	if perENB <= 0 {
		t.Error("measurement collapsed to zero; the gate is not measuring anything")
	}
	runtime.KeepAlive(s)
}
