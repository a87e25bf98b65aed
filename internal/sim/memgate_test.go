package sim

import (
	"testing"
	"unsafe"
)

// TestMemGateSimRecordSizes pins the engine's per-node records on 64-bit
// hosts, beside the sparse memory gate they feed: a Node is 128 B (no
// per-node injection or handover buffers; the back-pointer to its Sim
// wakes the target of a foreign bearer) and a link is 48 B (its two
// endpoints, its session and a stalled agent's backlog; the delivery
// batches and the handover queue are one each per Sim).
func TestMemGateSimRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Node{}); got > 128 {
		t.Errorf("Node is %d B, want at most 128", got)
	}
	if got := unsafe.Sizeof(link{}); got > 48 {
		t.Errorf("link is %d B, want at most 48", got)
	}
}
