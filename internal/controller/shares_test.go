package controller_test

import (
	"errors"
	"testing"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// TestApplySharesNoSession pins the typed failure mode of a share push
// toward an eNodeB with no bound session: callers must be able to tell
// "lost for lack of a session" (errors.Is ErrNoSession) apart from a
// malformed plan, instead of the old silent drop.
func TestApplySharesNoSession(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	var pushErr, valErr error
	m.Register(appFunc{name: "probe", fn: func(c *controller.Context, _ lte.Subframe) {
		_, pushErr = c.ApplyShares(99, controller.SharePlan{Shares: []float64{0.5, 0.5}})
		_, valErr = c.ApplyShares(99, controller.SharePlan{Shares: []float64{0.9, 0.9}})
	}}, 10)
	m.Tick()
	if !errors.Is(pushErr, controller.ErrNoSession) {
		t.Errorf("push to unbound eNB: %v, want ErrNoSession", pushErr)
	}
	if valErr == nil || errors.Is(valErr, controller.ErrNoSession) {
		t.Errorf("invalid vector: %v, want a validation error", valErr)
	}
}

// TestPolicyDocumentText pins the policy documents the master writes, byte
// for byte: the welcome's sync_period document, ApplyShares' rb_share
// document and ActivateVSF's behavior swap. The documents are the wire
// format of policy reconfiguration, so a change to one of these literals
// is a protocol change.
func TestPolicyDocumentText(t *testing.T) {
	var docs []string
	opts := controller.DefaultOptions()
	opts.SyncPeriodTTI = 5
	m := controller.NewMaster(opts)
	m.HandleAgentSession(func(msg *protocol.Message) error {
		if p, ok := msg.Payload.(*protocol.PolicyReconf); ok {
			docs = append(docs, p.Doc)
		}
		return nil
	}).Deliver(hello(1, 0))
	m.Tick()
	if want := "agent:\n  sync_period: 5\n"; len(docs) != 1 || docs[0] != want {
		t.Errorf("welcome sent %q, want [%q]", docs, want)
	}
	shares := func(plan controller.SharePlan) func(*controller.Context) (uint64, error) {
		return func(c *controller.Context) (uint64, error) { return c.ApplyShares(1, plan) }
	}
	activate := func(module, vsf, name string) func(*controller.Context) (uint64, error) {
		return func(c *controller.Context) (uint64, error) { return c.ActivateVSF(1, module, vsf, name) }
	}
	const third = 1.0 / 3
	for _, c := range []struct {
		name string
		push func(*controller.Context) (uint64, error)
		want string
	}{
		{"quarters", shares(controller.SharePlan{Shares: []float64{0.25, 0.25, 0.5}}),
			"mac:\n  dl_ue_sched:\n    parameters:\n      rb_share: [0.25, 0.25, 0.5]\n"},
		{"thirds", shares(controller.SharePlan{Shares: []float64{third, third, third}}),
			"mac:\n  dl_ue_sched:\n    parameters:\n      rb_share: [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]\n"},
		{"two slices", shares(controller.SharePlan{Shares: []float64{0.7, 0.3}}),
			"mac:\n  dl_ue_sched:\n    parameters:\n      rb_share: [0.7, 0.3]\n"},
		{"exponent", shares(controller.SharePlan{Shares: []float64{1e-7, 1 - 1e-7}}),
			"mac:\n  dl_ue_sched:\n    parameters:\n      rb_share: [1e-07, 0.9999999]\n"},
		{"one slice", shares(controller.SharePlan{Shares: []float64{1}}),
			"mac:\n  dl_ue_sched:\n    parameters:\n      rb_share: [1]\n"},
		{"custom module and VSF", shares(controller.SharePlan{Module: "ran", VSF: "slicer", Shares: []float64{0.5, 0.5}}),
			"ran:\n  slicer:\n    parameters:\n      rb_share: [0.5, 0.5]\n"},
		{"activate", activate("mac", "dl_ue_sched", "slice-rr"),
			"mac:\n  dl_ue_sched:\n    behavior: slice-rr\n"},
		{"activate quoted", activate("mac", "ul_ue_sched", "a: b"),
			"mac:\n  ul_ue_sched:\n    behavior: \"a: b\"\n"},
		{"activate empty", activate("mac", "dl_ue_sched", ""),
			"mac:\n  dl_ue_sched:\n    behavior: \"\"\n"},
	} {
		docs = nil
		var err error
		m.Do(func(ctx *controller.Context) { _, err = c.push(ctx) })
		m.Tick()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if len(docs) != 1 || docs[0] != c.want {
			t.Errorf("%s: sent %q, want [%q]", c.name, docs, c.want)
		}
	}
}
