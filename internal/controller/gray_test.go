package controller_test

import (
	"fmt"
	"testing"

	"flexran/internal/agent"
	"flexran/internal/controller"
	"flexran/internal/protocol"
	"flexran/internal/transport"
)

// deliveryRecorder captures the cmd_failed events of the watch stream.
type deliveryRecorder struct {
	fails []controller.WatchEvent
}

func (*deliveryRecorder) Name() string { return "delivery-recorder" }

func (d *deliveryRecorder) OnWatch(_ *controller.Context, ev controller.WatchEvent) {
	if ev.Kind == controller.WatchCmdFailed {
		d.fails = append(d.fails, ev)
	}
}

// The exactly-once acceptance gate: 30% loss plus heavy duplication in
// both directions, and every issued command still applies at the agent
// exactly once — retransmission covers the losses, the sequence-number
// dedup absorbs the duplicates, and nothing is lost silently.
func TestReliableDeliveryExactlyOnceUnderLoss(t *testing.T) {
	opts := controller.DefaultOptions()
	opts.CmdRetryTTI = 20
	opts.CmdRetryBudget = 10
	r := newRig(t, opts,
		transport.Netem{LossProb: 0.3, DupProb: 0.3, Seed: 41},
		transport.Netem{LossProb: 0.3, DupProb: 0.3, Seed: 42},
	)
	rec := &deliveryRecorder{}
	r.master.Register(rec, 7)
	for i := 0; i < 500 && !r.master.RIB().Connected(9); i++ {
		r.step()
	}
	if !r.master.RIB().Connected(9) {
		t.Fatal("agent never connected through the lossy link")
	}
	const commands = 30
	var lastSeq uint64
	for i := 0; i < commands; i++ {
		name := fmt.Sprintf("push-%d", i)
		seq, err := r.cmd(func(ctx *controller.Context) (uint64, error) {
			return ctx.PushNativeVSF(9, "mac", agent.OpDLUESched, name, "pf")
		})
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = seq
		r.run(10)
	}
	// Drain: the deepest backoff ladder at budget 10 spans ~1.5k TTIs.
	r.run(2000)

	if got := r.agent.SequencedApplied(); got != commands {
		t.Errorf("agent applied %d sequenced commands, want exactly %d", got, commands)
	}
	if len(rec.fails) != 0 {
		t.Errorf("%d commands reported failed despite retransmission: %+v", len(rec.fails), rec.fails)
	}
	if lastSeq != commands {
		t.Errorf("last assigned seq = %d after %d sequenced sends", lastSeq, commands)
	}
}

// A dead path must not fail silently: when the retransmission budget runs
// out, or the session closes with the command unacknowledged, one
// cmd_failed event reaches both an in-process WatchApp and a Master.Watch
// subscriber, carrying the issuing call's sequence number and the original
// payload.
func TestCommandFailureSurfacedToApp(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(r *rig) // what kills the delivery after the push
	}{
		{"budget exhausted", func(r *rig) { r.run(100) }},
		{"session closed", func(r *rig) { r.sess.Close(); r.run(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := controller.DefaultOptions()
			opts.CmdRetryTTI = 5
			opts.CmdRetryBudget = 2
			r := newRig(t, opts,
				transport.Netem{},
				transport.Netem{LossProb: 1, Seed: 5}, // nothing reaches the agent
			)
			rec := &deliveryRecorder{}
			r.master.Register(rec, 7)
			w := r.master.Watch(controller.WatchFilter{Kinds: controller.WatchCmdFailed}, 0)
			defer w.Cancel()
			r.run(3)

			seq, err := r.cmd(func(ctx *controller.Context) (uint64, error) {
				return ctx.PushPolicy(9, "mac:\n  dl_ue_sched:\n    behavior: rr\n")
			})
			if err != nil {
				t.Fatal(err)
			}
			if seq == 0 {
				t.Fatal("sequenced send assigned no sequence number")
			}
			tc.fail(r)

			if len(rec.fails) != 1 || len(w.Events()) != 1 {
				t.Fatalf("failures surfaced: app %d, watcher %d, want 1 each",
					len(rec.fails), len(w.Events()))
			}
			for who, f := range map[string]controller.WatchEvent{"app": rec.fails[0], "watcher": <-w.Events()} {
				if f.ENB != 9 || f.CmdSeq != seq {
					t.Errorf("%s: failure = enb %d seq %d, want enb 9 seq %d", who, f.ENB, f.CmdSeq, seq)
				}
				if _, ok := f.Payload.(*protocol.PolicyReconf); !ok {
					t.Errorf("%s: failure payload = %T, want *protocol.PolicyReconf", who, f.Payload)
				}
			}
			if got := r.agent.SequencedApplied(); got != 0 {
				t.Errorf("agent applied %d commands across a dead link", got)
			}
		})
	}
}

// With reliable delivery off (the default), sequenced machinery stays
// fully dormant: no sequence numbers on the wire, no pending state.
func TestReliableDeliveryOffByDefault(t *testing.T) {
	r := newRig(t, controller.DefaultOptions(), transport.Netem{}, transport.Netem{})
	r.run(3)
	seq, err := r.cmd(func(ctx *controller.Context) (uint64, error) {
		return ctx.PushNativeVSF(9, "mac", agent.OpDLUESched, "plain", "pf")
	})
	if err != nil {
		t.Fatal(err)
	}
	r.run(5)
	if seq != 0 {
		t.Errorf("assigned seq = %d with reliable delivery disabled, want 0", seq)
	}
	if got := r.agent.SequencedApplied(); got != 0 {
		t.Errorf("agent counted %d sequenced applications for an unsequenced push", got)
	}
	// The push itself still lands through the plain path.
	if got := r.agent.MAC().ActiveName(agent.OpDLUESched); got == "" {
		t.Error("unsequenced push did not reach the agent")
	}
}
