package controller_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// churnAgent is one scripted agent incarnation of the session-churn rig: it
// answers what the master sends it (acks, echo replies, resync snapshots)
// with seeded lateness, goes quiet, closes and comes back.
type churnAgent struct {
	enb    lte.ENBID
	epoch  uint64
	sess   *controller.AgentSession
	closed bool
	quiet  int // cycles left without a word to the master
	deaf   int // cycles left without acking commands
	mute   int // cycles left without a statistics report

	cmds   []uint64       // sequenced commands not yet acked
	echoes []lte.Subframe // echo SenderSFs not yet answered
	resync uint64         // epoch of an unanswered ResyncRequest

	sent hash.Hash64 // what the master sent this incarnation, in order
}

// issuer pushes a sequenced policy to a seeded agent in half the cycles,
// so the rig has commands to ack, retransmit and fail.
type issuer struct {
	rnd  *rand.Rand
	enbs int
	last uint64
}

func (*issuer) Name() string { return "issuer" }

func (a *issuer) OnTick(ctx *controller.Context, _ lte.Subframe) {
	if a.rnd.IntN(2) == 0 {
		return
	}
	enb := lte.ENBID(1 + a.rnd.IntN(a.enbs))
	if seq, err := ctx.PushPolicy(enb, "agent:\n  forward_events: yes\n"); err == nil && seq > a.last {
		a.last = seq
	}
}

// churnDigest drives a master through 1,500 cycles of seeded session churn —
// silent agents the heartbeat closes, takeovers whose displaced session is
// reaped, ghost Hellos, lost acks that spend the retry budget, health
// transitions and subscription maintenance — and folds everything the
// master makes observable into one hash: every message it sends, per
// session and in order, with its cycle; the watch stream; and the final
// command outcomes, health grades and liveness.
func churnDigest(t *testing.T, seed uint64) string {
	t.Helper()
	const enbs = 6
	opts := controller.DefaultOptions()
	opts.EchoPeriodTTI = 4
	opts.EchoMissBudget = 2
	opts.CmdRetryTTI = 2
	opts.CmdRetryBudget = 2
	opts.HealthPeriodTTI = 3
	opts.HealthDegradedTTI = 6
	opts.HealthSuspectTTI = 12
	opts.HealthRecoverTTI = 5
	m := controller.NewMaster(opts)
	rnd := rand.New(rand.NewPCG(seed, 1))
	iss := &issuer{rnd: rand.New(rand.NewPCG(seed, 2)), enbs: enbs}
	m.Register(iss, 0)
	w := m.Watch(controller.WatchFilter{}, 1<<16)
	h := fnv.New64a()
	out := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }

	var agents []*churnAgent
	epochs := map[lte.ENBID]uint64{}
	attach := func(enb lte.ENBID, epoch uint64) *churnAgent {
		// Welcomes go out from the updater: each incarnation hashes its
		// own traffic.
		a := &churnAgent{enb: enb, epoch: epoch, sent: fnv.New64a()}
		a.sess = m.HandleAgentSession(func(msg *protocol.Message) error {
			fmt.Fprintf(a.sent, "c%d %d seq %d\n", m.Cycle(), msg.Payload.Kind(), msg.CmdSeq)
			switch p := msg.Payload.(type) {
			case *protocol.Echo:
				a.echoes = append(a.echoes, p.SenderSF)
			case *protocol.ResyncRequest:
				a.resync = p.Epoch
			}
			if msg.CmdSeq != 0 {
				a.cmds = append(a.cmds, msg.CmdSeq)
			}
			return nil
		})
		a.sess.Deliver(hello(enb, epoch))
		agents = append(agents, a)
		return a
	}
	for enb := lte.ENBID(1); enb <= enbs; enb++ {
		epochs[enb] = 1
		attach(enb, 1)
	}

	for cycle := 0; cycle < 1500; cycle++ {
		for _, a := range agents {
			if a.closed {
				continue
			}
			if a.quiet > 0 {
				a.quiet--
				continue
			}
			sf := m.Cycle()
			switch r := rnd.Float64(); {
			case a.mute > 0:
				a.mute-- // alive and answering, but reporting nothing
			case r < 0.02:
				a.quiet = 4 + rnd.IntN(30) // long enough for echoes and a close
			case r < 0.03:
				a.deaf = 10 + rnd.IntN(30) // long enough to spend retry budgets
			case r < 0.035:
				a.sess.Close()
				a.closed = true
				continue
			case r < 0.04:
				// A newer incarnation takes over; the old one is fenced and
				// its leftover report dropped.
				epochs[a.enb]++
				a.sess.Deliver(statsWithCQI(sf, 0x46, 3))
				a.closed = true
				attach(a.enb, epochs[a.enb])
				continue
			case r < 0.042:
				attach(a.enb, a.epoch-1) // ghost Hello: fenced, reaped
			case r < 0.0425:
				a.mute = 600 + rnd.IntN(300) // stale enough to be re-welcomed
			}
			if a.mute == 0 && rnd.IntN(4) != 0 {
				a.sess.Deliver(protocol.New(a.enb, sf, &protocol.StatsReply{ID: 1, SF: sf, UEs: protocol.UETableOf(
					protocol.UEStats{RNTI: 0x46, CQI: lte.CQI(1 + rnd.IntN(15))},
				)}))
			}
			if a.resync != 0 && rnd.IntN(2) == 0 {
				a.sess.Deliver(protocol.New(a.enb, sf, &protocol.StateSnapshot{
					Epoch: a.resync, SF: sf,
					Config: protocol.ENBConfig{ID: a.enb, Cells: []protocol.CellConfig{{Cell: 0, Bandwidth: lte.BW10MHz}}},
				}))
				a.resync = 0
			}
			if a.deaf > 0 {
				a.deaf--
			}
			keep := a.cmds[:0]
			for _, seq := range a.cmds {
				if a.deaf > 0 || rnd.IntN(3) == 0 {
					keep = append(keep, seq) // late or lost ack
					continue
				}
				a.sess.Deliver(protocol.New(a.enb, sf, &protocol.ControlAck{OK: rnd.IntN(5) != 0, Seq: seq}))
			}
			a.cmds = keep
			if len(a.echoes) > 0 && rnd.IntN(2) == 0 {
				a.sess.Deliver(protocol.New(a.enb, sf, &protocol.EchoReply{SenderSF: a.echoes[0]}))
				a.echoes = a.echoes[1:]
			}
		}
		// A closed eNodeB comes back now and then as a fresh incarnation.
		if rnd.IntN(20) == 0 {
			enb := lte.ENBID(1 + rnd.IntN(enbs))
			if !m.RIB().Connected(enb) {
				epochs[enb]++
				attach(enb, epochs[enb])
			}
		}
		m.Tick()
		for len(w.Events()) > 0 {
			ev := <-w.Events()
			out("ev %d c%d %s enb %d h %s seq %d ues %d\n", ev.Seq, ev.Cycle, ev.Kind, ev.ENB, ev.Health, ev.CmdSeq, ev.UEs)
		}
	}
	if w.Overflowed() {
		t.Fatal("watcher overflowed")
	}
	for seq := uint64(1); seq <= iss.last; seq++ {
		if o, ok := m.CommandOutcome(seq); ok {
			out("outcome %d enb %d ok %v c%d %q\n", o.Seq, o.ENB, o.OK, o.Cycle, o.Detail)
		}
	}
	for i, a := range agents {
		out("agent %d enb %d epoch %d sent %x\n", i, a.enb, a.epoch, a.sent.Sum64())
	}
	for enb := lte.ENBID(1); enb <= enbs; enb++ {
		out("enb %d connected %v health %s\n", enb, m.RIB().Connected(enb), m.AgentHealth(enb))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSessionChurnDigest pins what the master sends, publishes and records
// under seeded session churn. The digests were recorded while heartbeat,
// RTT probe, subscription maintenance, retransmission, health grading and
// pruning were still one sweep each over every session, before they
// became one step per session; a deliberate change to any of them re-pins
// these values.
func TestSessionChurnDigest(t *testing.T) {
	want := map[uint64]string{
		1: "e438c3288f20a5fd",
		2: "b6c7799efd746899",
		3: "cdd363f2fc06fc41",
	}
	for seed, digest := range want {
		if got := churnDigest(t, seed); got != digest {
			t.Errorf("seed %d: digest %s, want %s", seed, got, digest)
		}
	}
}
