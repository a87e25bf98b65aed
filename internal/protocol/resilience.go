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

// Kind implements Payload.
func (*ResyncRequest) Kind() Kind { return KindResyncRequest }

// reset implements poolable.
func (p *ResyncRequest) reset() { *p = ResyncRequest{} }

// MarshalWire implements wire.Marshaler.
func (p *ResyncRequest) MarshalWire(e *wire.Encoder) { e.Uint(1, p.Epoch) }

// UnmarshalWire implements wire.Unmarshaler.
func (p *ResyncRequest) UnmarshalWire(d *wire.Decoder) error {
	return eachField(d, func(f int) error {
		if f == 1 {
			v, err := d.ReadUint()
			p.Epoch = v
			return err
		}
		return d.Skip()
	})
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

// Kind implements Payload.
func (*StateSnapshot) Kind() Kind { return KindStateSnapshot }

// snapUEs is the wire field of the snapshot's UE block — the same block a
// StatsReply carries. Field 4 carried one nested message per UE before it;
// it is retired and must not be reused.
const snapUEs = 8

// MarshalWire implements wire.Marshaler.
func (p *StateSnapshot) MarshalWire(e *wire.Encoder) {
	e.Uint(1, p.Epoch)
	e.Uint(2, uint64(p.SF))
	e.Message(3, &p.Config)
	for i := range p.Configs {
		e.Message(5, &p.Configs[i])
	}
	for i := range p.Cells {
		e.Message(6, &p.Cells[i])
	}
	for i := range p.Subs {
		e.Message(7, &p.Subs[i])
	}
	if p.UEs.Len() > 0 {
		e.Message(snapUEs, &p.UEs)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (p *StateSnapshot) UnmarshalWire(d *wire.Decoder) error {
	return eachField(d, func(f int) error {
		switch f {
		case 1:
			v, err := d.ReadUint()
			p.Epoch = v
			return err
		case 2:
			return readSF(d, &p.SF)
		case 3:
			return d.ReadMessage(&p.Config)
		case 5:
			var c *UEConfig
			p.Configs, c = grow(p.Configs)
			*c = UEConfig{}
			return d.ReadMessage(c)
		case 6:
			var c *CellStats
			p.Cells, c = grow(p.Cells)
			*c = CellStats{}
			return d.ReadMessage(c)
		case 7:
			var s *StatsRequest
			p.Subs, s = grow(p.Subs)
			*s = StatsRequest{}
			return d.ReadMessage(s)
		case snapUEs:
			return d.ReadMessage(&p.UEs)
		}
		return d.Skip()
	})
}
