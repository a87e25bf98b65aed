package protocol

// Message and payload pooling: the southbound fast path delivers one message
// per frame — decoded from a TCP frame, or sent whole over a simulated link —
// and the master/agent ingest loops discard it within the same tick, so
// both the Message envelope and the payload body are recycled through free
// lists instead of allocated per frame.
//
// Ownership contract — one rule for every send function: once send(m)
// returns, sent or not, the caller does not touch m again.
//
//   - AcquirePooled, DecodePooled and ClonePooled return an owned message
//     (Owned): its envelope and payload belong to whoever holds it, and
//     Release hands both back to the free lists. A send consumes it:
//     SimEndpoint.Send queues m itself (a netem duplicate gets a
//     ClonePooled copy) and releases it when the link loses, corrupts or
//     cuts it; Conn.Send releases it once the frame is encoded and
//     metered. ClonePooled(m) is DecodePooled(AppendMessage(nil, m)) without
//     the bytes, and shares no memory with m.
//   - AcquireMessage wraps a payload the caller keeps in a pooled envelope,
//     and New builds a message nobody recycles. Neither is owned: a
//     simulated link delivers a ClonePooled copy, and a send releases only
//     the AcquireMessage envelope. Release on a New-built message is a
//     no-op, so code paths and tests that keep or redeliver messages are
//     unaffected.
//   - A receiver releases what it is handed once applied. Anything that
//     must outlive Release has to be moved or copied out first. The RIB
//     takes an owned report's UE table by swapping it for the shard's old
//     one, which goes back to the free list with the message; a report
//     that is not owned is copied column by column (UETable.CopyFrom),
//     since a New-built message may be delivered again.
//   - Which kinds have a free list is the pool column of the kinds table
//     (protocol.go), each row saying who keeps a decoded payload. A kind
//     somebody does keep (MeasReport is stored in the RIB, Hello/config
//     replies alias their Cells slice, VSFUpdate's program bytes reach the
//     module cache) has none: Release recycles only its envelope and the
//     payload stays alive for its retainers.
//   - Under the race detector a released envelope is poisoned: it is never
//     handed out again and its payload stays nil, so a message touched
//     after Send or Release fails loudly instead of reading what the free
//     list handed out next.

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
// produced by AcquirePooled, DecodePooled or ClonePooled), and a send
// copies the payload or encodes it before it returns.
func AcquireMessage(enb lte.ENBID, sf lte.Subframe, p Payload) *Message {
	m := msgPool.Get().(*Message)
	m.ENB, m.SF, m.Payload = enb, sf, p
	m.poolMsg = true
	m.poolPayload = false
	m.wantPool = false
	return m
}

// AcquirePooled returns an empty, owned message of kind k drawn from the
// free lists: the envelope from the message pool, the payload from the
// kind's free list (or fresh, for a kind without one). The caller fills the
// payload in place and sends it, which consumes it, or calls Release.
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

// MessageSize returns len(AppendMessage(nil, m)) without encoding it: the
// same MarshalWire bodies run against a counting encoder (wire.Size), so the
// size needs no second set of column rules and costs no allocation.
func MessageSize(m *Message) int { return wire.Size(m) }

// Owned reports whether m came from AcquirePooled, DecodePooled or
// ClonePooled: its envelope and payload belong to its holder, so a send may
// pass m on as it is and a receiver may take its payload's storage.
func (m *Message) Owned() bool { return m.poolMsg && m.wantPool }

// Release recycles a message obtained from AcquireMessage, AcquirePooled,
// DecodePooled or ClonePooled. For the last three, a payload of a pooled
// kind is reset and returned to its kind's free list too. Messages built by
// New (or composite literals) are untouched — Release is a no-op for them —
// so retaining such messages stays safe.
//
// A released envelope has a nil payload. Under the race detector it is
// retired, not recycled, so it keeps the nil payload for good: whatever
// touches a message after Send or Release panics on that payload instead of
// reading a message the free list has handed out again since.
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
	if !raceEnabled {
		msgPool.Put(m)
	}
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
