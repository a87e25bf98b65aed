package protocol

// Resilience messages: after accepting a (re)connecting agent's Hello, the
// master pulls the agent's authoritative state with a ResyncRequest and the
// agent answers with a StateSnapshot — the full UE/cell/subscription state
// as of one subframe. The master rebuilds the agent's RIB shard from the
// snapshot in a single cycle instead of waiting for periodic reports to
// trickle the state back in, which is what bounds RIB-convergence time
// after a control-channel failure or an agent restart.

import (
	"flexran/internal/lte"
	"flexran/internal/wire"
)

// ResyncRequest asks the agent for a full StateSnapshot. The master sends
// it right after the HelloAck (and the default subscriptions) of a session
// it accepted.
type ResyncRequest struct {
	// Epoch names the session incarnation being resynchronized; the
	// snapshot echoes it so the master can fence answers that were
	// overtaken by yet another reconnect.
	Epoch uint64
}

var resyncRequestFields = newFields(
	uintF(1, "epoch", func(p *ResyncRequest) *uint64 { return &p.Epoch }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through resyncRequestFields.
func (*ResyncRequest) Kind() Kind                    { return KindResyncRequest }
func (p *ResyncRequest) MarshalWire(e *wire.Encoder) { resyncRequestFields.marshal(p, e) }
func (p *ResyncRequest) UnmarshalWire(d *wire.Decoder) error {
	return resyncRequestFields.unmarshal(p, d)
}

// StateSnapshot is the agent's authoritative state at one subframe: the
// eNodeB configuration, every UE's statistics and identity, the cell
// statistics and the active statistics subscriptions. Like Hello (whose
// Config it also carries), the payload is deliberately exempt from the
// decode free lists: the RIB may retain the Config's Cells slice when the
// snapshot outran the Hello, so the payload must stay alive after Release.
type StateSnapshot struct {
	// Epoch echoes the ResyncRequest being answered.
	Epoch uint64
	// SF is the agent subframe the snapshot was taken at.
	SF lte.Subframe
	// Config is the eNodeB configuration (as in Hello).
	Config ENBConfig
	// UEs carries one full statistics row per UE, ordered by RNTI.
	UEs UETable
	// Configs carries the matching UE identities (IMSI), ordered by RNTI.
	Configs []UEConfig
	// Cells carries the per-cell statistics.
	Cells []CellStats
	// Subs lists the statistics subscriptions active on the agent, so the
	// master can verify its re-subscriptions took hold.
	Subs []StatsRequest
}

// The UE block is the block a StatsReply carries; it took over from field
// 4, one nested message per UE, and is sent last as the newest field.
var stateSnapshotFields = newFields(
	uintF(1, "epoch", func(p *StateSnapshot) *uint64 { return &p.Epoch }),
	uintF(2, "sf", func(p *StateSnapshot) *lte.Subframe { return &p.SF }),
	msgF(3, "config", func(p *StateSnapshot) *ENBConfig { return &p.Config }),
	retired[StateSnapshot](4, "ues, one message per UE"),
	repF(5, "configs", func(p *StateSnapshot) *[]UEConfig { return &p.Configs }),
	repF(6, "cells", func(p *StateSnapshot) *[]CellStats { return &p.Cells }),
	repF(7, "subs", func(p *StateSnapshot) *[]StatsRequest { return &p.Subs }),
	ueBlockF(8, "ues", func(p *StateSnapshot) *UETable { return &p.UEs }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through stateSnapshotFields.
func (*StateSnapshot) Kind() Kind                    { return KindStateSnapshot }
func (p *StateSnapshot) MarshalWire(e *wire.Encoder) { stateSnapshotFields.marshal(p, e) }
func (p *StateSnapshot) UnmarshalWire(d *wire.Decoder) error {
	return stateSnapshotFields.unmarshal(p, d)
}
