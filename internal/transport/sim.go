package transport

import (
	"math/rand/v2"

	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/protocol"
	"flexran/internal/rng"
)

// Netem models the control-channel impairment between master and agent,
// replacing the Linux netem qdisc used in the paper's Fig. 9 experiment.
// Delays are one-way and expressed in TTIs (1 TTI = 1 ms), so an RTT of
// 30 ms is {OneWayTTI: 15} on both directions.
type Netem struct {
	// OneWayTTI is the fixed one-way delay in subframes.
	OneWayTTI int
	// JitterTTI adds uniform random jitter in [0, JitterTTI].
	JitterTTI int
	// LossProb drops a message with this probability (0 disables loss).
	LossProb float64
	// Seed makes jitter/loss deterministic; 0 uses a fixed default.
	Seed int64

	// Gray-failure knobs. All default to zero (disabled); a disabled knob
	// draws nothing from the random stream, so enabling one knob never
	// perturbs the loss/jitter sequence of a run that predates it.

	// BurstLossProb is the drop probability while the link is inside a
	// loss burst. Bursts follow a two-state Gilbert–Elliott chain stepped
	// once per send: a good link enters a burst with BurstEnterProb and a
	// bursting link exits with BurstExitProb. Outside a burst LossProb
	// applies as usual. The burst model is enabled whenever
	// BurstLossProb > 0.
	BurstLossProb  float64
	BurstEnterProb float64
	BurstExitProb  float64
	// DupProb delivers an independent extra copy of a sent message with
	// this probability (the duplicate draws its own delay).
	DupProb float64
	// ReorderProb holds a message back by an extra ReorderTTI subframes
	// with this probability, letting later sends overtake it (netem-style
	// reordering via differential delay).
	ReorderProb float64
	ReorderTTI  int
	// CorruptProb marks a message as corrupted in flight: the receiver
	// counts and drops it at delivery, as the checksummed TCP framing path
	// drops a frame whose CRC fails.
	CorruptProb float64
	// StallTTI freezes delivery toward the receiving end for StallTTI
	// subframes starting when this Netem is applied (NewSimPair or
	// SetNetem): nothing is handed up during the window, then the backlog
	// releases in order. Models a wedged middlebox or a long GC pause.
	StallTTI int
}

// burstEnabled reports whether the Gilbert–Elliott chain is active.
func (n Netem) burstEnabled() bool { return n.BurstLossProb > 0 }

// rngFor builds the deterministic random source for one endpoint. dir is
// the endpoint's direction index within its duplex link (0 or 1): it is
// mixed into the seed so the two directions draw decorrelated jitter/loss
// sequences even when both sides carry the same Seed (with the old shared
// seed, a duplex link produced mirror-image impairment patterns). Runs stay
// deterministic: the derived seed depends only on (Seed, dir).
func (n Netem) rngFor(dir int) *rand.Rand {
	seed := n.Seed
	if seed == 0 {
		seed = 42
	}
	// SplitMix64-style avalanche over (seed, dir), so adjacent seeds and
	// directions land far apart in the generator's state space.
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(dir+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rng.New(int64(z))
}

// delay samples the one-way delay in TTIs.
func (n Netem) delay(r *rand.Rand) lte.Subframe {
	d := n.OneWayTTI
	if n.JitterTTI > 0 {
		d += r.IntN(n.JitterTTI + 1)
	}
	if d < 0 {
		d = 0
	}
	return lte.Subframe(d)
}

// NetemCounters observes one link direction: how many frames the sender
// offered, how many the impairment dropped or duplicated, how many reached
// the consumer, and how many arrived corrupted (counted and discarded at
// delivery). Counters accumulate across SetNetem reconfigurations.
type NetemCounters struct {
	// Sent counts frames offered to the link, duplicates included.
	Sent uint64
	// Delivered counts frames handed to the consumer.
	Delivered uint64
	// Dropped counts frames lost to LossProb/BurstLossProb.
	Dropped uint64
	// Duplicated counts the extra copies injected by DupProb.
	Duplicated uint64
	// Corrupted counts frames discarded at delivery by CorruptProb.
	Corrupted uint64
}

// inflight is one message in transit: the receiver's own copy of what was
// sent, or nil for a frame damaged in flight, which is counted and dropped
// at delivery.
type inflight struct {
	deliverAt lte.Subframe
	seq       uint64 // tie-break: FIFO among equal delivery times
	msg       *protocol.Message
}

// inflightHeap is a typed min-heap ordered by (deliverAt, seq). It is
// hand-rolled rather than driven through container/heap so pushes do not
// box the inflight struct into an interface (one allocation per send on
// the per-TTI fast path). Pop order — the delivery order — is identical:
// the comparison defines a total order, so any heap yields the same
// sequence.
type inflightHeap []inflight

func (h inflightHeap) less(i, j int) bool {
	if h[i].deliverAt != h[j].deliverAt {
		return h[i].deliverAt < h[j].deliverAt
	}
	return h[i].seq < h[j].seq
}

func (h *inflightHeap) push(it inflight) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *inflightHeap) pop() inflight {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = inflight{} // release the message pointer
	*h = q[:n]
	q = q[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q.less(l, least) {
			least = l
		}
		if r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// SimEndpoint is one side of a simulated control channel. It is driven by
// the single-threaded simulation loop: Send enqueues toward the peer with
// the configured delay, and AdvanceTo(sf) returns the messages that have
// arrived by subframe sf. What travels is the message the TCP path would
// decode from the same frame: an owned message (protocol.Message.Owned)
// itself, and a pooled deep copy (protocol.ClonePooled) of any other. The
// meter counts the frame the TCP path would write (protocol.MessageSize
// plus FrameOverhead), so byte accounting matches it exactly with no bytes
// in between.
type SimEndpoint struct {
	peer  *SimEndpoint
	netem Netem
	rnd   *rand.Rand
	dir   int // direction index within the pair (seed derivation)
	down  bool
	meter *metrics.Meter

	now     lte.Subframe
	seq     uint64
	pending inflightHeap // messages addressed TO this endpoint

	// burstBad is the Gilbert–Elliott chain state for sends FROM this
	// endpoint (true = inside a loss burst).
	burstBad bool
	// stallUntil gates delivery TO this endpoint: while now < stallUntil
	// nothing is handed up (the peer's Netem.StallTTI armed it).
	stallUntil lte.Subframe
	// ctr counts the direction this endpoint SENDS on; the peer bumps
	// Delivered/Corrupted here when it consumes our traffic.
	ctr NetemCounters
}

// NewSimPair creates two connected endpoints. aToB impairs messages sent
// by a; bToA impairs messages sent by b.
func NewSimPair(aToB, bToA Netem) (a, b *SimEndpoint) {
	a = &SimEndpoint{netem: aToB, rnd: aToB.rngFor(0), dir: 0, meter: metrics.NewMeter()}
	b = &SimEndpoint{netem: bToA, rnd: bToA.rngFor(1), dir: 1, meter: metrics.NewMeter()}
	a.peer, b.peer = b, a
	a.armStall()
	b.armStall()
	return a, b
}

// armStall starts this endpoint's Netem.StallTTI window: delivery toward
// the peer freezes until the window elapses.
func (e *SimEndpoint) armStall() {
	if e.netem.StallTTI > 0 {
		e.peer.stallUntil = e.peer.now + lte.Subframe(e.netem.StallTTI)
	}
}

// Send meters m's frame and schedules it for delivery at the peer, and
// consumes m: an owned message travels as it is and belongs to the channel
// until delivered, any other is delivered as a pooled deep copy and its
// envelope released. A lost, corrupted or cut frame is released, and a
// netem duplicate is a copy of its own.
//
// Random draws are strictly knob-gated and happen in a fixed order (burst
// transition, loss, corrupt, reorder, jitter, dup, dup jitter). A Netem
// with every gray knob zero draws exactly the sequence the pre-gray code
// drew — loss then jitter — so legacy scenarios replay bit-identically.
func (e *SimEndpoint) Send(m *protocol.Message) error {
	if e.down {
		m.Release() // link cut: nothing is transmitted (and nothing metered)
		return nil
	}
	e.meter.Record(m.Payload.Kind().Category(), protocol.MessageSize(m)+FrameOverhead)
	e.ctr.Sent++
	lossProb := e.netem.LossProb
	if e.netem.burstEnabled() {
		if e.burstBad {
			e.burstBad = e.rnd.Float64() >= e.netem.BurstExitProb
		} else {
			e.burstBad = e.rnd.Float64() < e.netem.BurstEnterProb
		}
		if e.burstBad {
			lossProb = e.netem.BurstLossProb
		}
	}
	if lossProb > 0 && e.rnd.Float64() < lossProb {
		e.ctr.Dropped++
		m.Release() // dropped in flight
		return nil
	}
	corrupt := e.netem.CorruptProb > 0 && e.rnd.Float64() < e.netem.CorruptProb
	var reorder lte.Subframe
	if e.netem.ReorderProb > 0 && e.rnd.Float64() < e.netem.ReorderProb {
		reorder = lte.Subframe(e.netem.ReorderTTI)
	}
	e.seq++
	it := inflight{deliverAt: e.now + e.netem.delay(e.rnd) + reorder, seq: e.seq}
	switch {
	case corrupt: // the receiver gets nothing it could decode
	case m.Owned():
		it.msg = m
	default:
		it.msg = protocol.ClonePooled(m)
	}
	e.peer.pending.push(it)
	if e.netem.DupProb > 0 && e.rnd.Float64() < e.netem.DupProb {
		e.ctr.Sent++
		e.ctr.Duplicated++
		e.seq++
		e.peer.pending.push(inflight{
			deliverAt: e.now + e.netem.delay(e.rnd),
			seq:       e.seq,
			msg:       protocol.ClonePooled(m),
		})
	}
	if it.msg != m {
		m.Release()
	}
	return nil
}

// AdvanceTo moves this endpoint's clock to sf and returns every message
// that has arrived (in delivery order). The clock must not move backwards.
// Each message is owned by the consumer, which should Release it once
// applied.
func (e *SimEndpoint) AdvanceTo(sf lte.Subframe) []*protocol.Message {
	var out []*protocol.Message
	e.AdvanceInto(sf, &out)
	return out
}

// AdvanceInto is AdvanceTo with a caller-owned batch slice: arrived
// messages are appended to *batch, so a driver looping per TTI can reuse
// one slice and make the idle case (no arrivals) allocation-free.
func (e *SimEndpoint) AdvanceInto(sf lte.Subframe, batch *[]*protocol.Message) {
	if sf > e.now {
		e.now = sf
	}
	if e.now < e.stallUntil {
		return // stall window: the backlog is held, nothing delivers
	}
	for len(e.pending) > 0 && e.pending[0].deliverAt <= e.now {
		it := e.pending.pop()
		if it.msg == nil {
			// Damaged in flight: the checksum fails, so the frame is
			// counted and dropped.
			e.peer.ctr.Corrupted++
			continue
		}
		e.peer.ctr.Delivered++
		*batch = append(*batch, it.msg)
	}
}

// Pending reports how many messages are still in flight toward this
// endpoint.
func (e *SimEndpoint) Pending() int { return len(e.pending) }

// Meter exposes sent-byte counts by protocol category.
func (e *SimEndpoint) Meter() *metrics.Meter { return e.meter }

// SetNetem replaces the impairment applied to future sends from this
// endpoint (the simulated equivalent of re-running `tc qdisc change`).
// The burst chain restarts in the good state; a StallTTI arms a fresh
// delivery freeze toward the peer starting now.
func (e *SimEndpoint) SetNetem(n Netem) {
	e.netem = n
	e.rnd = n.rngFor(e.dir)
	e.burstBad = false
	e.armStall()
}

// Counters returns the impairment counters for the direction this
// endpoint sends on.
func (e *SimEndpoint) Counters() NetemCounters { return e.ctr }

// SetDown cuts or restores the link for traffic sent BY this endpoint:
// while down, Send silently discards and releases everything (the
// netem-style blackhole of a failure-injection scenario). Messages already
// in flight are unaffected; pair SetDown with DropInflight on the
// receiving side to model a cut that loses them too.
func (e *SimEndpoint) SetDown(down bool) { e.down = down }

// Down reports whether outbound transmission is cut.
func (e *SimEndpoint) Down() bool { return e.down }

// DropInflight discards every message currently in flight TOWARD this
// endpoint (a link cut taking the wire's contents with it).
func (e *SimEndpoint) DropInflight() {
	for i := range e.pending {
		e.pending[i].msg.Release()
		e.pending[i] = inflight{}
	}
	e.pending = e.pending[:0]
}
