package agent

import (
	"fmt"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/radio"
	"flexran/internal/sched"
)

// policyState is every knob a policy document can set.
type policyState struct {
	sync               int
	forward            bool
	hysteresis         float64
	ttt, interval      int
	dl, ul             string
	dlShares, ulShares string
}

func policyOf(a *Agent) policyState {
	shares := func(dir lte.Direction) string {
		if sl, ok := a.mac.active[dir].Load().impl.(*sched.Slicer); ok {
			return fmt.Sprint(sl.Shares())
		}
		return ""
	}
	return policyState{
		sync: a.mgmt.SyncPeriod(), forward: a.mgmt.ForwardEvents(),
		hysteresis: a.rrc.Hysteresis(), ttt: a.rrc.TimeToTrigger(), interval: a.rrc.ReportInterval(),
		dl: a.mac.ActiveName(OpDLUESched), ul: a.mac.ActiveName(OpULUESched),
		dlShares: shares(lte.Downlink), ulShares: shares(lte.Uplink),
	}
}

// FuzzPolicyDoc feeds arbitrary text to Reconfigure, the parser every
// PolicyReconf from the master reaches. Any document is either refused and
// changes nothing, or accepted and accepted again with the same result;
// either way the agent keeps scheduling a backlogged UE afterwards without
// panicking.
func FuzzPolicyDoc(f *testing.F) {
	for _, doc := range badPolicies {
		f.Add(doc)
	}
	for _, doc := range []string{
		"agent:\n  sync_period: 1\n  forward_events: no\n",
		"mac:\n  dl_ue_sched:\n    behavior: remote\n",
		"mac:\n  dl_ue_sched:\n    behavior: slice-rr\n    parameters:\n      rb_share: [0.7, 0.3]\n",
		"mac:\n  dl_ue_sched:\n    behavior: slice-rr\n    parameters:\n      rb_share: [0.9, 0.9]\n",
		"mac:\n  dl_ue_sched:\n    behavior: rr\n    parameters:\n      rb_share: [0.5, 0.5]\n",
		"rrc:\n  handover_hysteresis_db: 5.5\n  time_to_trigger_tti: 80\n  report_interval_tti: 0\n",
		"rrc:\n  handover_hysteresis_db: NaN\n",
		"agent:\n  sync_period: 7\nmac:\n  dl_ue_sched:\n    behavior: nosuchvsf\n",
		"mac:\n  ul_ue_sched:\n    behavior: slice-rr\n    parameters:\n      rb_share: [0.4]\n  dl_ue_sched:\n    behavior: pf\n    parameters:\n      rb_share: [0.5]\n",
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		h := newHarness(t, Options{})
		rnti := h.addConnectedUE(radio.Fixed(12))
		before := policyOf(h.agent)
		if err := h.agent.Reconfigure(doc); err != nil {
			if after := policyOf(h.agent); after != before {
				t.Fatalf("refused (%v) but changed the policy: %+v, then %+v", err, before, after)
			}
		} else {
			first := policyOf(h.agent)
			if err := h.agent.Reconfigure(doc); err != nil {
				t.Fatalf("accepted once, refused the second time: %v", err)
			}
			if again := policyOf(h.agent); again != first {
				t.Fatalf("reapplying changed the policy: %+v, then %+v", first, again)
			}
		}
		for range 20 {
			h.enb.DLEnqueue(rnti, 5000)
			h.enb.Step()
		}
	})
}
