package experiments

// fig_gray: gray-failure detection and reliable command delivery. Two
// harnesses built on the PR-8 machinery:
//
//   - detection: an agent wedges (control processing stalls) while its
//     echo responder keeps answering, so the legacy liveness check never
//     fires. The health monitor folds report staleness into the
//     Degraded/Suspect ladder; we sweep the Suspect staleness budget and
//     count master cycles from the stall to each state. The echo-only
//     column is the pre-health baseline watching session liveness — it
//     stays "never" for a stalled-but-heartbeating agent.
//
//   - delivery: a management app pushes a stream of VSF updates through a
//     30%-lossy control channel. With a single retransmission (budget 1,
//     the smallest; budget 0 means the default of 5) about a quarter of
//     the commands surface as delivery failures; with a deep budget every
//     command is retransmitted until acknowledged and nothing is lost.

import (
	"fmt"

	"flexran/internal/agent"
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/transport"
)

// FigGrayResult holds the detection sweep and the delivery comparison.
type FigGrayResult struct {
	// Detection: Suspect staleness budgets and the cycles from the stall
	// to each health state (-1 = never within the window).
	SuspectTTI     []int
	DetectDegraded []int
	DetectSuspect  []int
	DetectEchoOnly []int

	// Delivery under bidirectional loss.
	LossPct       float64
	Sent          int
	NoRetryFailed int // failed at retransmission budget 1
	RetryFailed   int // failed at budget 16
}

// ID implements Result.
func (*FigGrayResult) ID() string { return "fig_gray" }

func (r *FigGrayResult) String() string {
	t := newTable("fig_gray: gray-failure detection and reliable delivery")
	t.row("suspect budget", "degraded after", "suspect after", "echo-only detect")
	for i := range r.SuspectTTI {
		t.row(
			fmt.Sprintf("%d ms", r.SuspectTTI[i]),
			cyc(r.DetectDegraded[i]),
			cyc(r.DetectSuspect[i]),
			cyc(r.DetectEchoOnly[i]),
		)
	}
	t.row("", "", "", "")
	t.row(fmt.Sprintf("delivery @ %.0f%% loss", r.LossPct),
		fmt.Sprintf("%d sent", r.Sent),
		fmt.Sprintf("%d lost with 1 retry", r.NoRetryFailed),
		fmt.Sprintf("%d lost with 16 retries", r.RetryFailed))
	return t.String()
}

func init() { register("fig_gray", runFigGray) }

func runFigGray(scale float64) Result {
	window := int(4000 * scale)
	if window < 1000 {
		window = 1000
	}
	res := &FigGrayResult{SuspectTTI: []int{100, 200, 400}, LossPct: 30}
	for _, budget := range res.SuspectTTI {
		deg, sus := detectStall(budget, window)
		res.DetectDegraded = append(res.DetectDegraded, deg)
		res.DetectSuspect = append(res.DetectSuspect, sus)
		res.DetectEchoOnly = append(res.DetectEchoOnly, detectStallEchoOnly(window))
	}
	// An attempt fails when the command or its ack is lost, 1-0.7² = 0.51
	// at 30% loss each way. Budget 1 fails a command with 0.51² ≈ 26%, so
	// some of the 40 fail on any loss pattern (all survive with ~6e-6);
	// budget 16 fails one with 0.51¹⁷ ≈ 1e-5, so none do (any fails with
	// ~0.05%). Budget 8 (0.2% per command) lost one of 40 on ~9% of loss
	// patterns.
	res.Sent = 40
	res.NoRetryFailed = lossyDelivery(res.Sent, 1, window)
	res.RetryFailed = lossyDelivery(res.Sent, 16, window)
	return res
}

// grayStallWorld builds a settled one-eNodeB world whose agent is about to
// be wedged.
func grayStallWorld(opts controller.Options) *sim.Sim {
	spec := sim.ENBSpec{ID: 1, Agent: true, Seed: 1}
	for u := 0; u < 2; u++ {
		spec.UEs = append(spec.UEs, sim.UESpec{
			IMSI: uint64(100 + u), Channel: radio.Fixed(lte.CQI(8 + u)),
		})
	}
	s := sim.MustNew(sim.Config{Master: &opts}, spec)
	if !s.WaitAttached(3000) {
		panic("fig_gray: attach failed")
	}
	s.Run(300)
	return s
}

// detectStall wedges the agent and counts master cycles until the health
// monitor marks the session Degraded and Suspect.
func detectStall(suspectTTI, window int) (degraded, suspect int) {
	opts := controller.DefaultOptions()
	opts.StatsPeriodTTI = 20
	opts.EchoPeriodTTI = 20
	opts.EchoMissBudget = 50 // echoes keep flowing; keep liveness out of the way
	opts.HealthPeriodTTI = 10
	opts.HealthDegradedTTI = suspectTTI / 2
	opts.HealthSuspectTTI = suspectTTI
	opts.HealthRecoverTTI = 100
	s := grayStallWorld(opts)
	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultAgentStall, ENB: 1})
	degraded, suspect = -1, -1
	for i := 0; i < window && suspect < 0; i++ {
		s.Step()
		h := s.Master.AgentHealth(1)
		if h >= controller.Degraded && degraded < 0 {
			degraded = i + 1
		}
		if h >= controller.Suspect {
			suspect = i + 1
		}
	}
	return degraded, suspect
}

// detectStallEchoOnly runs the same wedge with the health monitor off and
// watches the only signal the pre-health master had: session liveness.
func detectStallEchoOnly(window int) int {
	opts := controller.DefaultOptions()
	opts.StatsPeriodTTI = 20
	opts.EchoPeriodTTI = 20
	opts.EchoMissBudget = 3
	s := grayStallWorld(opts)
	s.InjectFaults(sim.Fault{At: s.Now(), Kind: sim.FaultAgentStall, ENB: 1})
	for i := 0; i < window; i++ {
		s.Step()
		if !s.Master.RIB().Connected(1) {
			return i + 1
		}
	}
	return -1
}

// grayPusher pushes a stream of native-VSF updates and counts delivery
// failures surfaced by the reliable-delivery machinery.
type grayPusher struct {
	enb    lte.ENBID
	period lte.Subframe
	total  int
	sent   int
	failed int
}

func (*grayPusher) Name() string { return "gray-pusher" }

func (p *grayPusher) OnTick(ctx *controller.Context, cycle lte.Subframe) {
	if p.sent < p.total && cycle%p.period == 0 {
		name := fmt.Sprintf("push-%d", p.sent)
		if _, err := ctx.PushNativeVSF(p.enb, "mac", agent.OpDLUESched, name, "pf"); err == nil {
			p.sent++
		}
	}
}

func (p *grayPusher) OnWatch(_ *controller.Context, ev controller.WatchEvent) {
	if ev.Kind == controller.WatchCmdFailed {
		p.failed++
	}
}

// lossyDelivery pushes total commands through a 30%-lossy channel with the
// given retransmission budget (≥ 1) and returns how many were reported
// failed.
func lossyDelivery(total, budget, window int) int {
	opts := controller.DefaultOptions()
	opts.StatsPeriodTTI = 20
	opts.EchoPeriodTTI = 20
	opts.EchoMissBudget = 1000 // loss is the subject, not liveness
	opts.CmdRetryTTI = 40
	opts.CmdRetryBudget = budget
	spec := sim.ENBSpec{
		ID: 1, Agent: true, Seed: 1,
		ToMaster: transport.Netem{LossProb: 0.3, Seed: 11},
		ToAgent:  transport.Netem{LossProb: 0.3, Seed: 12},
	}
	for u := 0; u < 2; u++ {
		spec.UEs = append(spec.UEs, sim.UESpec{
			IMSI: uint64(100 + u), Channel: radio.Fixed(lte.CQI(8 + u)),
		})
	}
	s := sim.MustNew(sim.Config{Master: &opts}, spec)
	p := &grayPusher{enb: 1, period: 25, total: total}
	s.Master.Register(p, 50)
	if !s.WaitAttached(3000) {
		panic("fig_gray: attach failed")
	}
	// The deepest backoff ladder (40, 80, 160, then 320 TTIs per try)
	// spans 320·(16-2)+280 ≈ 4.8k TTIs.
	drain := max(window, 5000)
	s.Run(total*25 + drain) // push phase plus drain
	return p.failed
}
