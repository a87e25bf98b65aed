package protocol

import (
	"flexran/internal/lte"
	"flexran/internal/wire"
)

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

var allocFields = newFields(
	uintF(1, "rnti", func(p *Alloc) *lte.RNTI { return &p.RNTI }),
	uintF(2, "rb_start", func(p *Alloc) *uint16 { return &p.RBStart }),
	uintF(3, "rb_count", func(p *Alloc) *uint16 { return &p.RBCount }),
	uintF(4, "mcs", func(p *Alloc) *lte.MCS { return &p.MCS }),
)

// MarshalWire and UnmarshalWire implement the wire interfaces through allocFields.
func (p *Alloc) MarshalWire(e *wire.Encoder)         { allocFields.marshal(p, e) }
func (p *Alloc) UnmarshalWire(d *wire.Decoder) error { return allocFields.unmarshal(p, d) }

// DLSchedule is a downlink MAC scheduling command (Table 1 "Commands").
// TargetSF is the subframe the decision must be applied in; a command
// arriving after its target subframe has passed is discarded by the agent
// (the "missed deadline" behaviour evaluated in Fig. 9).
type DLSchedule struct {
	Cell     lte.CellID
	TargetSF lte.Subframe
	Allocs   []Alloc
}

var dlScheduleFields = newFields(
	uintF(1, "cell", func(p *DLSchedule) *lte.CellID { return &p.Cell }),
	uintF(2, "target_sf", func(p *DLSchedule) *lte.Subframe { return &p.TargetSF }),
	repF(3, "allocs", allocFields, func(p *DLSchedule) *[]Alloc { return &p.Allocs }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through dlScheduleFields.
func (*DLSchedule) Kind() Kind                            { return KindDLSchedule }
func (p *DLSchedule) MarshalWire(e *wire.Encoder)         { dlScheduleFields.marshal(p, e) }
func (p *DLSchedule) UnmarshalWire(d *wire.Decoder) error { return dlScheduleFields.unmarshal(p, d) }

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
// its codec, reset and copy are dlScheduleFields.
func (p *ULSchedule) MarshalWire(e *wire.Encoder) { dlScheduleFields.marshal((*DLSchedule)(p), e) }
func (p *ULSchedule) UnmarshalWire(d *wire.Decoder) error {
	return dlScheduleFields.unmarshal((*DLSchedule)(p), d)
}

// ulScheduleForm is the uplink kind's form: dlScheduleFields.
type ulScheduleForm struct{}

func (ulScheduleForm) reset(p *ULSchedule) { dlScheduleFields.reset((*DLSchedule)(p)) }
func (ulScheduleForm) copy(dst, src *ULSchedule) {
	dlScheduleFields.copy((*DLSchedule)(dst), (*DLSchedule)(src))
}
