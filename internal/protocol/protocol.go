// Package protocol defines the FlexRAN protocol: the message set exchanged
// between the master controller and the agents over the southbound API
// (paper §4.3.2 and Table 1). Messages cover the five interaction classes
// of the FlexRAN Agent API:
//
//   - configuration (synchronous get/set of eNodeB/cell/UE parameters)
//   - statistics (asynchronous request/reply reporting)
//   - commands (applying control decisions, e.g. MAC scheduling)
//   - event triggers (UE attachment, random access, subframe sync)
//   - control delegation (VSF updation code push, policy reconfiguration)
//
// Every message carries a small envelope (kind, eNodeB id, subframe stamp)
// and one payload. Serialization uses the internal/wire varint codec (the
// stdlib-only stand-in for Google Protocol Buffers used by the original
// implementation); unknown fields of any wire type are skipped so the
// protocol can evolve without breaking deployed agents, a design
// requirement the paper emphasizes, and a value its Go field cannot hold is
// an error (wire.ErrRange), never a truncated one.
//
// As a .proto file would, the package says each thing once: what a kind is
// (name, Fig. 7 category, constructor, whether decoded payloads are
// recycled) is its row of the kinds table below, and a message struct's wire
// form is the field table declared beside it (fields.go), which is its
// encoder, decoder, pool reset and deep copy. Only the envelope Message and
// the columnar UE block (uetable.go) are written out by hand. The README's
// "Southbound protocol reference" is generated from these tables.
package protocol

import (
	"errors"
	"fmt"
	"sync"

	"flexran/internal/lte"
	"flexran/internal/wire"
)

// Kind identifies the payload type of a message.
type Kind uint8

// Message kinds. The numeric values are part of the wire format.
const (
	KindInvalid Kind = iota
	KindHello
	KindHelloAck
	KindEcho
	KindEchoReply
	KindENBConfigRequest
	KindENBConfigReply
	KindUEConfigRequest
	KindUEConfigReply
	KindStatsRequest
	KindStatsReply
	KindSubframeTrigger
	KindDLSchedule
	KindULSchedule
	KindUEEvent
	KindVSFUpdate
	KindPolicyReconf
	KindControlAck
	KindMeasReport
	KindHandoverCommand
	KindHandoverComplete
	KindResyncRequest
	KindStateSnapshot
	kindMax // sentinel
)

// Signaling categories used by the evaluation's overhead breakdowns
// (paper Fig. 7). Every message kind belongs to exactly one category.
const (
	CatManagement = "agent management"
	CatStats      = "stats reporting"
	CatSync       = "master-agent sync"
	CatCommands   = "master commands"
	CatDelegation = "control delegation"
)

// kindInfo is everything the package knows about one message kind.
type kindInfo struct {
	name     string
	category string // the Fig. 7 accounting bucket
	new      func() Payload
	// copy deep-copies src into dst, a payload of this kind fresh from new
	// or from pool (ClonePooled).
	copy func(dst, src Payload)
	// pool and reset are set for the kinds the free lists recycle: Release
	// resets the payload and returns it to pool. They are nil for a kind
	// whose decoded payloads somebody downstream keeps.
	pool  *sync.Pool
	reset func(Payload)
	// why is the reason beside that choice: who still holds the payload
	// after Release, or that the kind is too rare to pool. The ownership
	// contract is in pool.go.
	why string
}

// payloadOf is a pointer to the message struct T that is a Payload.
type payloadOf[T any] interface {
	*T
	Payload
}

// form is what the kinds table takes from a payload's field table.
type form[T any] interface {
	reset(*T)
	copy(dst, src *T)
}

// retained declares a kind whose decoded payloads are never recycled:
// somebody keeps them, or they are too rare for a free list to matter.
func retained[T any, P payloadOf[T]](name, category string, f form[T], why string) kindInfo {
	return kindInfo{name: name, category: category, why: why,
		new:  func() Payload { return P(new(T)) },
		copy: func(dst, src Payload) { f.copy((*T)(dst.(P)), (*T)(src.(P))) }}
}

// pooled declares a kind whose decoded payloads the ingest loops are done
// with inside the tick, so DecodePooled and ClonePooled draw them from a
// free list. The table's reset clears every field while keeping slice
// capacity, so a reused payload leaks nothing into a message that omits a
// field.
func pooled[T any, P payloadOf[T]](name, category string, f form[T]) kindInfo {
	k := retained[T, P](name, category, f, "consumed within the tick")
	k.pool = &sync.Pool{New: func() any { return P(new(T)) }}
	k.reset = func(p Payload) { f.reset((*T)(p.(P))) }
	return k
}

// kinds is the one registry of message kinds, indexed by Kind: String,
// Category, the decoder's constructor and the free lists all read it.
var kinds = [kindMax]kindInfo{
	KindInvalid:          {name: "invalid", category: CatManagement},
	KindHello:            retained("hello", CatManagement, helloFields, "the RIB keeps Config.Cells"),
	KindHelloAck:         retained("hello_ack", CatManagement, helloAckFields, "rare: once per session"),
	KindEcho:             pooled("echo", CatManagement, echoFields),
	KindEchoReply:        pooled("echo_reply", CatManagement, echoReplyFields),
	KindENBConfigRequest: retained("enb_config_request", CatManagement, enbConfigRequestFields, "rare: on demand"),
	KindENBConfigReply:   retained("enb_config_reply", CatManagement, enbConfigReplyFields, "the RIB keeps Config.Cells"),
	KindUEConfigRequest:  retained("ue_config_request", CatManagement, ueConfigRequestFields, "rare: on demand"),
	KindUEConfigReply:    retained("ue_config_reply", CatManagement, ueConfigReplyFields, "rare: on demand"),
	KindStatsRequest:     pooled("stats_request", CatStats, statsRequestFields),
	KindStatsReply:       pooled("stats_reply", CatStats, statsReplyFields),
	KindSubframeTrigger:  pooled("subframe_trigger", CatSync, subframeTriggerFields),
	KindDLSchedule:       pooled("dl_schedule", CatCommands, dlScheduleFields),
	KindULSchedule:       pooled[ULSchedule]("ul_schedule", CatCommands, ulScheduleForm{}),
	KindUEEvent:          pooled("ue_event", CatManagement, ueEventFields),
	KindVSFUpdate:        retained("vsf_update", CatDelegation, vsfUpdateFields, "the module cache keeps Program"),
	KindPolicyReconf:     retained("policy_reconf", CatDelegation, policyReconfFields, "rare: on demand"),
	KindControlAck:       pooled("control_ack", CatManagement, controlAckFields),
	KindMeasReport:       retained("meas_report", CatStats, measReportFields, "the RIB stores it, watchers receive it"),
	KindHandoverCommand:  pooled("handover_command", CatCommands, handoverCommandFields),
	KindHandoverComplete: retained("handover_complete", CatManagement, handoverCompleteFields, "watchers receive it"),
	KindResyncRequest:    pooled("resync_request", CatManagement, resyncRequestFields),
	KindStateSnapshot:    retained("state_snapshot", CatManagement, stateSnapshotFields, "the RIB may keep Config.Cells"),
}

func (k Kind) String() string {
	if k < kindMax {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Category returns the Fig. 7 accounting bucket for a message kind.
func (k Kind) Category() string {
	if k < kindMax {
		return kinds[k].category
	}
	return CatManagement
}

// Payload is one decoded message body.
type Payload interface {
	wire.Marshaler
	wire.Unmarshaler
	// Kind returns the message kind this payload belongs to.
	Kind() Kind
}

// Message is a FlexRAN protocol message: envelope plus payload.
type Message struct {
	// ENB identifies the agent/eNodeB this message concerns, for both
	// directions of the protocol.
	ENB lte.ENBID
	// SF is the sender's current subframe when the message was built.
	// The master uses agent stamps for synchronization; the agent uses
	// master stamps to validate scheduling deadlines.
	SF lte.Subframe
	// Payload is the message body; its Kind() is serialized in the
	// envelope.
	Payload Payload
	// CmdSeq is the reliable-delivery sequence number stamped by the
	// master on commands it wants acknowledged (0 = unsequenced, the
	// default). The field is omitted from the wire when zero, so
	// deployments that never enable reliable delivery emit byte-identical
	// frames to older builds.
	CmdSeq uint64

	// poolMsg marks an envelope drawn from the message free list;
	// poolPayload marks a payload drawn from its kind's free list; and
	// wantPool asks UnmarshalWire to use the free lists. See pool.go.
	poolMsg     bool
	poolPayload bool
	wantPool    bool
}

// Envelope wire fields.
const (
	envKind    = 1
	envENB     = 2
	envSF      = 3
	envPayload = 4
	envCmdSeq  = 5
)

// MarshalWire encodes the envelope and payload.
func (m *Message) MarshalWire(e *wire.Encoder) {
	e.Uint(envKind, uint64(m.Payload.Kind()))
	e.Uint(envENB, uint64(m.ENB))
	e.Uint(envSF, uint64(m.SF))
	e.Message(envPayload, m.Payload)
	if m.CmdSeq != 0 {
		e.Uint(envCmdSeq, m.CmdSeq)
	}
}

// UnmarshalWire decodes the envelope, allocating the payload type that
// matches the received kind.
func (m *Message) UnmarshalWire(d *wire.Decoder) error {
	var kind Kind
	var payloadRaw []byte
	seenPayload := false
	for {
		ok, err := d.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch d.Field() {
		case envKind:
			err = readUint(d, &kind)
		case envENB:
			err = readUint(d, &m.ENB)
		case envSF:
			err = readUint(d, &m.SF)
		case envPayload:
			payloadRaw, err = d.ReadBytes()
			seenPayload = true
		case envCmdSeq:
			err = readUint(d, &m.CmdSeq)
		default:
			err = d.Skip()
		}
		if err != nil {
			return err
		}
	}
	if !seenPayload {
		return errors.New("protocol: message without payload")
	}
	p, pooled, err := acquirePayload(kind, m.wantPool)
	if err != nil {
		return err
	}
	m.poolPayload = pooled
	if err := wire.Unmarshal(payloadRaw, p); err != nil {
		return fmt.Errorf("protocol: decoding %v payload: %w", kind, err)
	}
	m.Payload = p
	return nil
}

// newPayload allocates the payload struct for a kind.
func newPayload(k Kind) (Payload, error) {
	if k >= kindMax || kinds[k].new == nil {
		return nil, fmt.Errorf("protocol: unknown message kind %d", uint8(k))
	}
	return kinds[k].new(), nil
}

// Encode serializes a message to bytes.
func Encode(m *Message) []byte { return wire.Marshal(m) }

// Decode parses a message from bytes.
func Decode(b []byte) (*Message, error) {
	m := &Message{}
	if err := wire.Unmarshal(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// New builds a message around a payload.
func New(enb lte.ENBID, sf lte.Subframe, p Payload) *Message {
	return &Message{ENB: enb, SF: sf, Payload: p}
}
