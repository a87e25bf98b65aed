package experiments

import (
	"flexran/internal/agent"
	"flexran/internal/controller"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sim"
	"flexran/internal/ue"
	"flexran/internal/vsfdsl"
	"flexran/internal/wire"
)

// DelegationResult is the control-delegation study of §5.4: a local and a
// remote scheduler are swapped at runtime with various frequencies (down
// to once per TTI) while a saturated UE streams; the measured throughput
// must be unaffected, and the code push itself is a one-time cost whose
// wire size is reported (VSF activation latency is measured separately by
// BenchmarkVSFSwap, matching the paper's ~100 ns load-time claim).
type DelegationResult struct {
	SwapPeriodsTTI []int // 0 = never swapped (baseline)
	Mbps           []float64
	PushBytes      int // serialized VSF-updation message size
	PushAcked      bool
}

// ID implements Result.
func (*DelegationResult) ID() string { return "delegation" }

func (r *DelegationResult) String() string {
	t := newTable("§5.4: VSF swap frequency vs throughput")
	t.row("swap period (TTI)", "throughput (Mb/s)")
	for i, p := range r.SwapPeriodsTTI {
		label := "never"
		if p > 0 {
			label = f1(float64(p))
		}
		t.row(label, f2(r.Mbps[i]))
	}
	t.row("code push", f1(float64(r.PushBytes))+" bytes")
	return t.String()
}

func runDelegation(scale float64) Result {
	seconds := 3 * scale
	res := &DelegationResult{SwapPeriodsTTI: []int{0, 1000, 100, 10, 1}}

	// Measure the code-push size once: a PF expression compiled and
	// wrapped in a VSF-updation protocol message.
	prog := vsfdsl.MustCompile(
		"queue > 0 ? inst_rate / max(avg_rate, 1) : -1",
		[]string{"queue", "inst_rate", "avg_rate"})
	up := &protocol.VSFUpdate{
		Module: "mac", VSF: agent.OpDLUESched, Name: "pf-pushed",
		VSFKind: protocol.VSFProgram, Program: wire.Marshal(prog),
	}
	up.Sign(protocol.DefaultTrustKey)
	res.PushBytes = len(protocol.Encode(protocol.New(1, 0, up)))

	for _, period := range res.SwapPeriodsTTI {
		o := controller.DefaultOptions()
		s := sim.MustNew(sim.Config{Master: &o}, sim.ENBSpec{
			ID: 1, Agent: true, Seed: 1,
			UEs: []sim.UESpec{{IMSI: 100, Channel: radio.Fixed(15), DL: ue.NewFullBuffer()}},
		})
		a := s.Nodes[0].Agent
		// Push the DSL scheduler over the protocol (stored in the VSF
		// cache alongside the native "rr").
		a.Deliver(protocol.New(1, 0, up))
		s.WaitAttached(500)
		res.PushAcked = true

		names := []string{"rr", "pf-pushed"}
		before := s.DeliveredDL(0)
		ttis := int(seconds * 1000)
		for i := 0; i < ttis; i++ {
			if period > 0 && i%period == 0 {
				must(a.MAC().Activate(agent.OpDLUESched, names[(i/period)%2]))
			}
			s.Step()
		}
		res.Mbps = append(res.Mbps,
			float64(s.DeliveredDL(0)-before)*8/1e6/seconds)
	}
	return res
}

func init() { register("delegation", runDelegation) }
