package protocol

// Mobility messages: the A3 measurement report an agent raises when a
// neighbour cell becomes better than the serving cell (hysteresis and
// time-to-trigger applied agent-side by the RRC control module), the
// handover command a mobility-management application issues back, and the
// completion notification the target agent emits once the UE context has
// moved. Together they close the paper's Table 1 mobility control loop.

import (
	"flexran/internal/lte"
	"flexran/internal/wire"
)

// NeighborMeas is one neighbour-cell measurement inside a MeasReport.
type NeighborMeas struct {
	ENB     lte.ENBID
	Cell    lte.CellID
	RSRPdBm int32
	RSRQdB  int32
}

var neighborMeasFields = newFields(
	uintF(1, "enb", func(p *NeighborMeas) *lte.ENBID { return &p.ENB }),
	uintF(2, "cell", func(p *NeighborMeas) *lte.CellID { return &p.Cell }),
	sintF(3, "rsrp_dbm", func(p *NeighborMeas) *int32 { return &p.RSRPdBm }),
	sintF(4, "rsrq_db", func(p *NeighborMeas) *int32 { return &p.RSRQdB }),
)

// MarshalWire and UnmarshalWire implement the wire interfaces through neighborMeasFields.
func (p *NeighborMeas) MarshalWire(e *wire.Encoder) { neighborMeasFields.marshal(p, e) }
func (p *NeighborMeas) UnmarshalWire(d *wire.Decoder) error {
	return neighborMeasFields.unmarshal(p, d)
}

// MeasReport is an A3 event report: the serving-cell operating point and
// the neighbour measurements at the moment the entering condition had held
// for the configured time-to-trigger. Neighbours are ordered strongest
// first, so Neighbors[0] is the A3 trigger cell.
type MeasReport struct {
	RNTI lte.RNTI
	IMSI uint64
	Cell lte.CellID
	// ServingRSRPdBm / ServingRSRQdB are the serving-cell measurements.
	ServingRSRPdBm int32
	ServingRSRQdB  int32
	Neighbors      []NeighborMeas
}

var measReportFields = newFields(
	uintF(1, "rnti", func(p *MeasReport) *lte.RNTI { return &p.RNTI }),
	uintF(2, "imsi", func(p *MeasReport) *uint64 { return &p.IMSI }),
	uintF(3, "cell", func(p *MeasReport) *lte.CellID { return &p.Cell }),
	sintF(4, "serving_rsrp_dbm", func(p *MeasReport) *int32 { return &p.ServingRSRPdBm }),
	sintF(5, "serving_rsrq_db", func(p *MeasReport) *int32 { return &p.ServingRSRQdB }),
	repF(6, "neighbors", func(p *MeasReport) *[]NeighborMeas { return &p.Neighbors }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through measReportFields.
func (*MeasReport) Kind() Kind                            { return KindMeasReport }
func (p *MeasReport) MarshalWire(e *wire.Encoder)         { measReportFields.marshal(p, e) }
func (p *MeasReport) UnmarshalWire(d *wire.Decoder) error { return measReportFields.unmarshal(p, d) }

// HandoverCommand orders the serving agent to hand a UE over to a target
// cell (the master command closing the A3 loop).
type HandoverCommand struct {
	RNTI       lte.RNTI
	IMSI       uint64
	TargetENB  lte.ENBID
	TargetCell lte.CellID
}

var handoverCommandFields = newFields(
	uintF(1, "rnti", func(p *HandoverCommand) *lte.RNTI { return &p.RNTI }),
	uintF(2, "imsi", func(p *HandoverCommand) *uint64 { return &p.IMSI }),
	uintF(3, "target_enb", func(p *HandoverCommand) *lte.ENBID { return &p.TargetENB }),
	uintF(4, "target_cell", func(p *HandoverCommand) *lte.CellID { return &p.TargetCell }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through handoverCommandFields.
func (*HandoverCommand) Kind() Kind                    { return KindHandoverCommand }
func (p *HandoverCommand) MarshalWire(e *wire.Encoder) { handoverCommandFields.marshal(p, e) }
func (p *HandoverCommand) UnmarshalWire(d *wire.Decoder) error {
	return handoverCommandFields.unmarshal(p, d)
}

// HandoverComplete is the target agent's notification that the UE context
// has been admitted: the master's RIB migrates the UE between the source
// and target shards on receipt.
type HandoverComplete struct {
	// RNTI is the UE's new identity at the target cell.
	RNTI lte.RNTI
	IMSI uint64
	Cell lte.CellID
	// SourceENB is the eNodeB the UE left.
	SourceENB lte.ENBID
	// SourceRNTI is the UE's old identity at the source cell.
	SourceRNTI lte.RNTI
}

var handoverCompleteFields = newFields(
	uintF(1, "rnti", func(p *HandoverComplete) *lte.RNTI { return &p.RNTI }),
	uintF(2, "imsi", func(p *HandoverComplete) *uint64 { return &p.IMSI }),
	uintF(3, "cell", func(p *HandoverComplete) *lte.CellID { return &p.Cell }),
	uintF(4, "source_enb", func(p *HandoverComplete) *lte.ENBID { return &p.SourceENB }),
	uintF(5, "source_rnti", func(p *HandoverComplete) *lte.RNTI { return &p.SourceRNTI }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through handoverCompleteFields.
func (*HandoverComplete) Kind() Kind                    { return KindHandoverComplete }
func (p *HandoverComplete) MarshalWire(e *wire.Encoder) { handoverCompleteFields.marshal(p, e) }
func (p *HandoverComplete) UnmarshalWire(d *wire.Decoder) error {
	return handoverCompleteFields.unmarshal(p, d)
}
