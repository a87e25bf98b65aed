package protocol

import (
	"flexran/internal/lte"
	"flexran/internal/wire"
)

// ProtocolVersion is the FlexRAN protocol revision implemented here.
const ProtocolVersion = 1

// Every struct below declares its wire form once, in the field table that
// follows it (fields.go): the table is its encoder, its decoder, its pool
// reset and its entry in the README's protocol reference.

// ---------------------------------------------------------------------------
// Agent management (session establishment, liveness, configuration)

// Hello is the first message an agent sends after connecting: it announces
// the protocol version, the agent's session epoch and the eNodeB
// configuration it fronts. The agent retransmits the Hello until the
// matching HelloAck arrives.
type Hello struct {
	Version uint32
	Config  ENBConfig
	// Epoch is the agent's monotonically increasing session counter: it
	// bumps on every (re)connect and survives agent restarts (a persisted
	// boot counter). The master fences sessions by epoch, so traffic from
	// a previous incarnation can never overwrite a newer session's state.
	Epoch uint64
}

var helloFields = newFields(
	uintF(1, "version", func(p *Hello) *uint32 { return &p.Version }),
	msgF(2, "config", func(p *Hello) *ENBConfig { return &p.Config }),
	uintF(3, "epoch", func(p *Hello) *uint64 { return &p.Epoch }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through helloFields.
func (*Hello) Kind() Kind                            { return KindHello }
func (p *Hello) MarshalWire(e *wire.Encoder)         { helloFields.marshal(p, e) }
func (p *Hello) UnmarshalWire(d *wire.Decoder) error { return helloFields.unmarshal(p, d) }

// HelloAck is the master's response accepting an agent session.
type HelloAck struct {
	Version  uint32
	MasterID string
	// Epoch echoes the accepted Hello's epoch, so a retransmitting agent
	// can tell an ack for its current incarnation from a stale one.
	Epoch uint64
}

var helloAckFields = newFields(
	uintF(1, "version", func(p *HelloAck) *uint32 { return &p.Version }),
	stringF(2, "master_id", func(p *HelloAck) *string { return &p.MasterID }),
	uintF(3, "epoch", func(p *HelloAck) *uint64 { return &p.Epoch }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through helloAckFields.
func (*HelloAck) Kind() Kind                            { return KindHelloAck }
func (p *HelloAck) MarshalWire(e *wire.Encoder)         { helloAckFields.marshal(p, e) }
func (p *HelloAck) UnmarshalWire(d *wire.Decoder) error { return helloAckFields.unmarshal(p, d) }

// Echo is a keepalive/liveness probe; EchoReply mirrors its sequence.
// TS is the EchoTS timestamp path: the sender's wall clock in Unix
// nanoseconds (0 = unset), mirrored verbatim by the EchoReply so the
// sender can measure the command round trip without clock agreement from
// the peer.
type Echo struct {
	Seq      uint64
	SenderSF lte.Subframe
	TS       int64
}

var echoFields = newFields(
	uintF(1, "seq", func(p *Echo) *uint64 { return &p.Seq }),
	uintF(2, "sender_sf", func(p *Echo) *lte.Subframe { return &p.SenderSF }),
	optUintF(3, "ts", func(p *Echo) *int64 { return &p.TS }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through echoFields.
func (*Echo) Kind() Kind                            { return KindEcho }
func (p *Echo) MarshalWire(e *wire.Encoder)         { echoFields.marshal(p, e) }
func (p *Echo) UnmarshalWire(d *wire.Decoder) error { return echoFields.unmarshal(p, d) }

// EchoReply answers an Echo, mirroring its sequence, subframe stamp and
// TS timestamp.
type EchoReply struct {
	Seq      uint64
	SenderSF lte.Subframe
	TS       int64
}

var echoReplyFields = newFields(
	uintF(1, "seq", func(p *EchoReply) *uint64 { return &p.Seq }),
	uintF(2, "sender_sf", func(p *EchoReply) *lte.Subframe { return &p.SenderSF }),
	optUintF(3, "ts", func(p *EchoReply) *int64 { return &p.TS }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through echoReplyFields.
func (*EchoReply) Kind() Kind                            { return KindEchoReply }
func (p *EchoReply) MarshalWire(e *wire.Encoder)         { echoReplyFields.marshal(p, e) }
func (p *EchoReply) UnmarshalWire(d *wire.Decoder) error { return echoReplyFields.unmarshal(p, d) }

// ---------------------------------------------------------------------------
// Configuration

// CellConfig describes one cell of an eNodeB (Table 1 "Configuration").
type CellConfig struct {
	Cell      lte.CellID
	Bandwidth lte.Bandwidth
	Duplex    lte.Duplex
	TxMode    lte.TransmissionMode
	Antennas  uint8
	Band      uint16
}

var cellConfigFields = newFields(
	uintF(1, "cell", func(p *CellConfig) *lte.CellID { return &p.Cell }),
	uintF(2, "bandwidth", func(p *CellConfig) *lte.Bandwidth { return &p.Bandwidth }),
	uintF(3, "duplex", func(p *CellConfig) *lte.Duplex { return &p.Duplex }),
	uintF(4, "tx_mode", func(p *CellConfig) *lte.TransmissionMode { return &p.TxMode }),
	uintF(5, "antennas", func(p *CellConfig) *uint8 { return &p.Antennas }),
	uintF(6, "band", func(p *CellConfig) *uint16 { return &p.Band }),
)

// MarshalWire and UnmarshalWire implement the wire interfaces through cellConfigFields.
func (p *CellConfig) MarshalWire(e *wire.Encoder)         { cellConfigFields.marshal(p, e) }
func (p *CellConfig) UnmarshalWire(d *wire.Decoder) error { return cellConfigFields.unmarshal(p, d) }

// ENBConfig describes an eNodeB and its cells.
type ENBConfig struct {
	ID    lte.ENBID
	Cells []CellConfig
}

var enbConfigFields = newFields(
	uintF(1, "id", func(p *ENBConfig) *lte.ENBID { return &p.ID }),
	repF(2, "cells", func(p *ENBConfig) *[]CellConfig { return &p.Cells }),
)

// MarshalWire and UnmarshalWire implement the wire interfaces through enbConfigFields.
func (p *ENBConfig) MarshalWire(e *wire.Encoder)         { enbConfigFields.marshal(p, e) }
func (p *ENBConfig) UnmarshalWire(d *wire.Decoder) error { return enbConfigFields.unmarshal(p, d) }

// ENBConfigRequest asks the agent for its ENBConfig.
type ENBConfigRequest struct{}

var enbConfigRequestFields = newFields[ENBConfigRequest]()

// Kind, MarshalWire and UnmarshalWire implement Payload through enbConfigRequestFields.
func (*ENBConfigRequest) Kind() Kind                    { return KindENBConfigRequest }
func (p *ENBConfigRequest) MarshalWire(e *wire.Encoder) { enbConfigRequestFields.marshal(p, e) }
func (p *ENBConfigRequest) UnmarshalWire(d *wire.Decoder) error {
	return enbConfigRequestFields.unmarshal(p, d)
}

// ENBConfigReply returns the agent's ENBConfig.
type ENBConfigReply struct {
	Config ENBConfig
}

var enbConfigReplyFields = newFields(
	msgF(1, "config", func(p *ENBConfigReply) *ENBConfig { return &p.Config }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through enbConfigReplyFields.
func (*ENBConfigReply) Kind() Kind                    { return KindENBConfigReply }
func (p *ENBConfigReply) MarshalWire(e *wire.Encoder) { enbConfigReplyFields.marshal(p, e) }
func (p *ENBConfigReply) UnmarshalWire(d *wire.Decoder) error {
	return enbConfigReplyFields.unmarshal(p, d)
}

// UEConfig describes one attached UE.
type UEConfig struct {
	RNTI lte.RNTI
	Cell lte.CellID
	IMSI uint64
}

var ueConfigFields = newFields(
	uintF(1, "rnti", func(p *UEConfig) *lte.RNTI { return &p.RNTI }),
	uintF(2, "cell", func(p *UEConfig) *lte.CellID { return &p.Cell }),
	uintF(3, "imsi", func(p *UEConfig) *uint64 { return &p.IMSI }),
)

// MarshalWire and UnmarshalWire implement the wire interfaces through ueConfigFields.
func (p *UEConfig) MarshalWire(e *wire.Encoder)         { ueConfigFields.marshal(p, e) }
func (p *UEConfig) UnmarshalWire(d *wire.Decoder) error { return ueConfigFields.unmarshal(p, d) }

// UEConfigRequest asks the agent for the attached-UE list.
type UEConfigRequest struct{}

var ueConfigRequestFields = newFields[UEConfigRequest]()

// Kind, MarshalWire and UnmarshalWire implement Payload through ueConfigRequestFields.
func (*UEConfigRequest) Kind() Kind                    { return KindUEConfigRequest }
func (p *UEConfigRequest) MarshalWire(e *wire.Encoder) { ueConfigRequestFields.marshal(p, e) }
func (p *UEConfigRequest) UnmarshalWire(d *wire.Decoder) error {
	return ueConfigRequestFields.unmarshal(p, d)
}

// UEConfigReply lists the currently attached UEs.
type UEConfigReply struct {
	UEs []UEConfig
}

var ueConfigReplyFields = newFields(
	repF(1, "ues", func(p *UEConfigReply) *[]UEConfig { return &p.UEs }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through ueConfigReplyFields.
func (*UEConfigReply) Kind() Kind                    { return KindUEConfigReply }
func (p *UEConfigReply) MarshalWire(e *wire.Encoder) { ueConfigReplyFields.marshal(p, e) }
func (p *UEConfigReply) UnmarshalWire(d *wire.Decoder) error {
	return ueConfigReplyFields.unmarshal(p, d)
}

// ---------------------------------------------------------------------------
// Events

// UEEventType enumerates data-plane events the agent reports (Table 1
// "Event-triggers").
type UEEventType uint8

// UE event types.
const (
	UEEventAttach UEEventType = iota
	UEEventDetach
	UEEventRandomAccess
	UEEventSchedulingRequest
)

func (t UEEventType) String() string {
	switch t {
	case UEEventAttach:
		return "attach"
	case UEEventDetach:
		return "detach"
	case UEEventRandomAccess:
		return "random_access"
	case UEEventSchedulingRequest:
		return "scheduling_request"
	}
	return "unknown"
}

// UEEvent notifies the master about a UE state change.
type UEEvent struct {
	Type UEEventType
	RNTI lte.RNTI
	Cell lte.CellID
}

var ueEventFields = newFields(
	uintF(1, "type", func(p *UEEvent) *UEEventType { return &p.Type }),
	uintF(2, "rnti", func(p *UEEvent) *lte.RNTI { return &p.RNTI }),
	uintF(3, "cell", func(p *UEEvent) *lte.CellID { return &p.Cell }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through ueEventFields.
func (*UEEvent) Kind() Kind                            { return KindUEEvent }
func (p *UEEvent) MarshalWire(e *wire.Encoder)         { ueEventFields.marshal(p, e) }
func (p *UEEvent) UnmarshalWire(d *wire.Decoder) error { return ueEventFields.unmarshal(p, d) }

// SubframeTrigger is the per-TTI synchronization message the agent emits
// when the master subscribes to subframe sync (used by centralized
// real-time scheduling).
type SubframeTrigger struct {
	SF lte.Subframe
}

// Kind implements Payload.
func (*SubframeTrigger) Kind() Kind { return KindSubframeTrigger }

// reset is the kind's pool reset (kinds table).
func (p *SubframeTrigger) reset() { *p = SubframeTrigger{} }

// MarshalWire implements wire.Marshaler. Sent every TTI under centralized
// scheduling, so the codec is written out, not table-driven.
func (p *SubframeTrigger) MarshalWire(e *wire.Encoder) { e.Uint(1, uint64(p.SF)) }

// UnmarshalWire implements wire.Unmarshaler.
func (p *SubframeTrigger) UnmarshalWire(d *wire.Decoder) error {
	return eachField(d, func(f int) error {
		if f == 1 {
			return readUint(d, &p.SF)
		}
		return d.Skip()
	})
}

// ---------------------------------------------------------------------------
// Control delegation

// VSFKind distinguishes the two code-push mechanisms (DESIGN.md S5).
type VSFKind uint8

// VSF payload kinds.
const (
	// VSFNative references an implementation in the agent's built-in
	// store (the signed-shared-library model of the paper).
	VSFNative VSFKind = iota
	// VSFProgram carries compiled vsfdsl bytecode executed in the
	// agent's sandboxed VM.
	VSFProgram
)

// VSFUpdate pushes a new VSF implementation into the agent's cache
// (paper §4.3.1 "VSF updation"). It does not activate the implementation;
// activation happens via PolicyReconf.
type VSFUpdate struct {
	// Module is the control module the VSF belongs to ("mac", "rrc").
	Module string
	// VSF is the CMI operation name, e.g. "dl_ue_sched".
	VSF string
	// Name is the cache key under which the implementation is stored.
	Name string
	// Kind selects native-store reference vs DSL bytecode.
	VSFKind VSFKind
	// Ref is the native store reference (VSFNative).
	Ref string
	// Program is serialized vsfdsl bytecode (VSFProgram).
	Program []byte
	// Signature is the trust signature over the payload; agents reject
	// unsigned updates when operating in verified mode.
	Signature []byte
}

var vsfUpdateFields = newFields(
	stringF(1, "module", func(p *VSFUpdate) *string { return &p.Module }),
	stringF(2, "vsf", func(p *VSFUpdate) *string { return &p.VSF }),
	stringF(3, "name", func(p *VSFUpdate) *string { return &p.Name }),
	uintF(4, "vsf_kind", func(p *VSFUpdate) *VSFKind { return &p.VSFKind }),
	stringF(5, "ref", func(p *VSFUpdate) *string { return &p.Ref }),
	bytesF(6, "program", func(p *VSFUpdate) *[]byte { return &p.Program }),
	bytesF(7, "signature", func(p *VSFUpdate) *[]byte { return &p.Signature }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through vsfUpdateFields.
func (*VSFUpdate) Kind() Kind                            { return KindVSFUpdate }
func (p *VSFUpdate) MarshalWire(e *wire.Encoder)         { vsfUpdateFields.marshal(p, e) }
func (p *VSFUpdate) UnmarshalWire(d *wire.Decoder) error { return vsfUpdateFields.unmarshal(p, d) }

// PolicyReconf carries a policy reconfiguration document (paper Fig. 3):
// yamlite text selecting VSF behaviors and setting their parameters.
type PolicyReconf struct {
	Doc string
}

var policyReconfFields = newFields(
	stringF(1, "doc", func(p *PolicyReconf) *string { return &p.Doc }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through policyReconfFields.
func (*PolicyReconf) Kind() Kind                    { return KindPolicyReconf }
func (p *PolicyReconf) MarshalWire(e *wire.Encoder) { policyReconfFields.marshal(p, e) }
func (p *PolicyReconf) UnmarshalWire(d *wire.Decoder) error {
	return policyReconfFields.unmarshal(p, d)
}

// ControlAck reports the outcome of a command or delegation message.
// Seq echoes the envelope CmdSeq of the command being acknowledged when
// the master requested reliable delivery (0 = unsequenced ack; the field
// is omitted from the wire, keeping legacy acks byte-identical).
type ControlAck struct {
	OK     bool
	Detail string
	Seq    uint64
}

var controlAckFields = newFields(
	boolF(1, "ok", func(p *ControlAck) *bool { return &p.OK }),
	stringF(2, "detail", func(p *ControlAck) *string { return &p.Detail }),
	optUintF(3, "seq", func(p *ControlAck) *uint64 { return &p.Seq }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through controlAckFields.
func (*ControlAck) Kind() Kind                            { return KindControlAck }
func (p *ControlAck) MarshalWire(e *wire.Encoder)         { controlAckFields.marshal(p, e) }
func (p *ControlAck) UnmarshalWire(d *wire.Decoder) error { return controlAckFields.unmarshal(p, d) }

// eachField drives the decode loop of a hand-written decoder, calling fn
// for every field; fn must consume it.
func eachField(d *wire.Decoder, fn func(field int) error) error {
	for {
		ok, err := d.Next()
		if err != nil || !ok {
			return err
		}
		if err := fn(d.Field()); err != nil {
			return err
		}
	}
}
