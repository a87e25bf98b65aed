package protocol

// Message and payload pooling: the southbound fast path delivers one message
// per frame — decoded from a TCP frame, or cloned by a simulated endpoint —
// and the master/agent ingest loops discard it within the same tick, so
// both the Message envelope and the payload body are recycled through free
// lists instead of allocated per frame.
//
// Ownership contract:
//
//   - DecodePooled and ClonePooled return a message owned by the caller;
//     calling Release hands the envelope (and, for pooled kinds, the
//     payload) back to the free lists. After Release the message and its
//     payload must not be touched. The two return the same message for the
//     same bytes: ClonePooled(m) is DecodePooled(AppendMessage(nil, m))
//     without the bytes, and shares no memory with m.
//   - Anything that must outlive Release has to be copied out first. The
//     RIB copies each report into its agent's own table, one bulk copy per
//     column (UETable.CopyFrom), for exactly this reason: it never keeps or
//     swaps in the decoded table, which a message built by New would share
//     with every later delivery of that message.
//   - Which kinds have a free list is the pool column of the kinds table
//     (protocol.go), each row saying who keeps a decoded payload. A kind
//     somebody does keep (MeasReport is stored in the RIB, Hello/config
//     replies alias their Cells slice, VSFUpdate's program bytes reach the
//     module cache) has none: Release recycles only its envelope and the
//     payload stays alive for its retainers.
//   - AcquirePooled returns an empty message owned the same way. The agent
//     builds its two per-TTI messages, the StatsReply and the
//     SubframeTrigger, in one, hands it to its transport's send function
//     and releases it as soon as send returns, sent or not. A send
//     function therefore must not retain m: both transports finish with it
//     inside the call (SimEndpoint.Send clones it, Conn.Send encodes it),
//     and a capture that keeps messages stores ClonePooled(m).
//   - Release on a message built by New (or by hand) is a no-op, so code
//     paths and tests that keep messages around are unaffected.

import (
	"sync"

	"flexran/internal/lte"
	"flexran/internal/wire"
)

var msgPool = sync.Pool{New: func() interface{} { return new(Message) }}

// acquirePayload returns a payload for a kind: from the kind's free list
// when pooling was requested and the kind has one, freshly allocated
// otherwise. The bool reports whether the payload came from a pool.
func acquirePayload(k Kind, wantPool bool) (Payload, bool, error) {
	if wantPool && k < kindMax && kinds[k].pool != nil {
		return kinds[k].pool.Get().(Payload), true, nil
	}
	p, err := newPayload(k)
	return p, false, err
}

// AcquireMessage builds a message around a payload using a pooled envelope.
// The caller keeps ownership of the payload: Release returns only the
// envelope to the pool (the payload is recycled solely for messages
// produced by AcquirePooled, DecodePooled or ClonePooled). Intended for
// transient sends where the transport serializes synchronously and does not
// retain the message.
func AcquireMessage(enb lte.ENBID, sf lte.Subframe, p Payload) *Message {
	m := msgPool.Get().(*Message)
	m.ENB, m.SF, m.Payload = enb, sf, p
	m.poolMsg = true
	m.poolPayload = false
	m.wantPool = false
	return m
}

// AcquirePooled returns an empty message of kind k drawn from the free lists,
// owned like a ClonePooled message: the envelope from the message pool, the
// payload from the kind's free list (or fresh, for a kind without one). The
// caller fills the payload in place, sends it, and calls Release.
func AcquirePooled(enb lte.ENBID, sf lte.Subframe, k Kind) *Message {
	p, pooled, _ := acquirePayload(k, true) // k is a known kind
	m := msgPool.Get().(*Message)
	*m = Message{ENB: enb, SF: sf, Payload: p, poolMsg: true, poolPayload: pooled, wantPool: true}
	return m
}

// DecodePooled parses a message from bytes like Decode, but draws the
// envelope — and the payload, for pooled kinds — from the free lists.
// The decoded message owns no part of b (payload decoders copy what they
// keep), so the caller may reuse b immediately. Call Release when done.
func DecodePooled(b []byte) (*Message, error) {
	m := msgPool.Get().(*Message)
	*m = Message{poolMsg: true, wantPool: true}
	if err := wire.Unmarshal(b, m); err != nil {
		// A half-decoded payload is dropped rather than recycled.
		m.poolPayload = false
		m.Release()
		return nil, err
	}
	return m, nil
}

// ClonePooled returns a deep copy of m drawn from the free lists, exactly
// what DecodePooled(AppendMessage(nil, m)) returns: the envelope's wire
// fields, and a payload from its kind's free list (or fresh, for a kind
// without one) holding a copy of what m's payload would put on the wire.
// The copy shares no memory with m, so the caller may reuse m and anything
// its payload aliases at once. Call Release when done.
func ClonePooled(m *Message) *Message {
	k := m.Payload.Kind()
	c := AcquirePooled(m.ENB, m.SF, k)
	kinds[k].copy(c.Payload, m.Payload)
	c.CmdSeq = m.CmdSeq
	return c
}

// MessageSize returns len(AppendMessage(nil, m)): the encoder runs into a
// pooled buffer that is released again, so the size needs no second set of
// column rules and costs no allocation at steady state.
func MessageSize(m *Message) int {
	e := wire.AcquireEncoder()
	m.MarshalWire(e)
	n := e.Len()
	e.Release()
	return n
}

// Release recycles a message obtained from AcquireMessage, AcquirePooled,
// DecodePooled or ClonePooled. For the last three, a payload of a pooled
// kind is reset and returned to its kind's free list too. Messages built by
// New (or composite literals) are untouched — Release is a no-op for them —
// so retaining such messages stays safe.
func (m *Message) Release() {
	if m == nil || !m.poolMsg {
		return
	}
	if m.poolPayload {
		k := &kinds[m.Payload.Kind()]
		k.reset(m.Payload)
		k.pool.Put(m.Payload)
	}
	*m = Message{}
	msgPool.Put(m)
}

// AppendMessage serializes m onto dst and returns the extended slice,
// encoding through a pooled encoder: a caller that reuses dst's capacity
// pays no allocation at steady state.
func AppendMessage(dst []byte, m *Message) []byte {
	return wire.AppendMarshal(dst, m)
}

// grow extends s by one element, reusing capacity when available, and
// returns the extended slice plus a pointer to the new element. This is
// the repeated-field decode fast path: decoding into the slice element
// directly avoids the per-element heap allocation a stack temporary would
// cost escaping through the Unmarshaler interface. The element is NOT
// cleared — the caller must zero-assign it before decoding.
func grow[T any](s []T) ([]T, *T) {
	n := len(s)
	if n < cap(s) {
		s = s[:n+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[n]
}
