package protocol

import (
	"flexran/internal/lte"
	"flexran/internal/wire"
)

// The scheduling commands travel every TTI under centralized scheduling
// (32 Allocs a cell), so their codecs are written out, not table-driven;
// reference_test.go checks them against their field tables.

// Alloc is one UE's allocation within a scheduling decision: the resource
// blocks and modulation/coding the data plane must apply.
type Alloc struct {
	RNTI lte.RNTI
	// RBStart/RBCount describe the PRB range (contiguous type-2
	// allocation, as the paper's prototype uses).
	RBStart uint16
	RBCount uint16
	MCS     lte.MCS
}

// MarshalWire implements wire.Marshaler.
func (a *Alloc) MarshalWire(e *wire.Encoder) {
	e.Uint(1, uint64(a.RNTI))
	e.Uint(2, uint64(a.RBStart))
	e.Uint(3, uint64(a.RBCount))
	e.Uint(4, uint64(a.MCS))
}

// UnmarshalWire implements wire.Unmarshaler. Every field is a varint, so the
// value is read before the number is looked at; a field of another wire type
// is one a newer peer added, and is skipped.
func (a *Alloc) UnmarshalWire(d *wire.Decoder) error {
	return eachField(d, func(f int) error {
		if d.WireType() != wire.TVarint {
			return d.Skip()
		}
		v, err := d.ReadUint()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			return narrow(&a.RNTI, v)
		case 2:
			return narrow(&a.RBStart, v)
		case 3:
			return narrow(&a.RBCount, v)
		case 4:
			return narrow(&a.MCS, v)
		}
		return nil
	})
}

// DLSchedule is a downlink MAC scheduling command (Table 1 "Commands").
// TargetSF is the subframe the decision must be applied in; a command
// arriving after its target subframe has passed is discarded by the agent
// (the "missed deadline" behaviour evaluated in Fig. 9).
type DLSchedule struct {
	Cell     lte.CellID
	TargetSF lte.Subframe
	Allocs   []Alloc
}

// Kind implements Payload.
func (*DLSchedule) Kind() Kind { return KindDLSchedule }

// reset is the kind's pool reset (kinds table).
func (p *DLSchedule) reset() {
	allocs := p.Allocs
	*p = DLSchedule{}
	p.Allocs = allocs[:0]
}

// MarshalWire implements wire.Marshaler.
func (p *DLSchedule) MarshalWire(e *wire.Encoder) {
	e.Uint(1, uint64(p.Cell))
	e.Uint(2, uint64(p.TargetSF))
	for i := range p.Allocs {
		e.Message(3, &p.Allocs[i])
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (p *DLSchedule) UnmarshalWire(d *wire.Decoder) error {
	return eachField(d, func(f int) error {
		switch f {
		case 1:
			return readUint(d, &p.Cell)
		case 2:
			return readUint(d, &p.TargetSF)
		case 3:
			var a *Alloc
			p.Allocs, a = grow(p.Allocs)
			*a = Alloc{}
			return d.ReadMessage(a)
		}
		return d.Skip()
	})
}

// ULSchedule is an uplink grant command, structurally identical to
// DLSchedule but applied to the uplink shared channel.
type ULSchedule struct {
	Cell     lte.CellID
	TargetSF lte.Subframe
	Allocs   []Alloc
}

// Kind implements Payload.
func (*ULSchedule) Kind() Kind { return KindULSchedule }

// The uplink command's wire form is the downlink's under another kind, so
// its codec and reset are DLSchedule's.
func (p *ULSchedule) reset()                              { (*DLSchedule)(p).reset() }
func (p *ULSchedule) MarshalWire(e *wire.Encoder)         { (*DLSchedule)(p).MarshalWire(e) }
func (p *ULSchedule) UnmarshalWire(d *wire.Decoder) error { return (*DLSchedule)(p).UnmarshalWire(d) }
