// Delegation: the paper's §5.4 control-delegation workflow end to end.
// The master compiles a proportional-fair scheduler expression to
// bytecode, pushes it to the agent over the FlexRAN protocol (VSF
// updation, signed), then swaps the agent between its local round-robin
// VSF and the pushed one at runtime via policy reconfiguration — while a
// saturated UE streams without interruption.
package main

import (
	"fmt"

	"flexran"
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/wire"
)

func main() {
	opts := flexran.DefaultMasterOptions()
	opts.CmdRetryTTI = 10 // sequence commands, so the push's ack is recorded
	s := flexran.MustNewSim(flexran.SimConfig{Master: &opts},
		flexran.ENBSpec{ID: 1, Agent: true, Seed: 1,
			AgentOpts: flexran.AgentOptions{RequireSignedVSFs: true},
			UEs: []flexran.UESpec{{
				IMSI: 1, Channel: flexran.FixedChannel(15), DL: flexran.NewFullBuffer(),
			}}})
	if !s.WaitAttached(1000) {
		panic("attach failed")
	}
	a := s.Nodes[0].Agent

	// 1. Compile the VSF on the controller side.
	prog, err := flexran.CompileVSF("queue > 0 ? inst_rate / max(avg_rate, 1) : -1")
	if err != nil {
		panic(err)
	}
	fmt.Println("compiled VSF bytecode:")
	fmt.Print(prog.Disassemble())

	// 2. Push it over the protocol, signed (VSF updation).
	seq := pushViaApp(s.Master, prog)
	s.Run(5) // let the push and its ack travel
	ack, ok := s.Master.CommandOutcome(seq)
	if !ok {
		panic("the VSF push was not acknowledged")
	}
	fmt.Printf("agent ack: seq=%d ok=%v %s\n", ack.Seq, ack.OK, ack.Detail)
	fmt.Println("agent VSF cache:", a.MAC().CachedVSFs())

	// 3. Swap between local rr and the pushed pf-dsl every 100 TTIs while
	// measuring throughput (the §5.4 service-continuity check).
	names := []string{"rr", "pf-dsl"}
	before := s.Report(0, 0).DLDelivered
	for i := 0; i < 2000; i++ {
		if i%100 == 0 {
			if err := a.MAC().Activate(flexran.OpDLUESched, names[(i/100)%2]); err != nil {
				panic(err)
			}
		}
		s.Step()
	}
	after := s.Report(0, 0).DLDelivered
	fmt.Printf("throughput while swapping every 100 TTIs: %.2f Mb/s (active VSF now %q)\n",
		float64(after-before)*8/1e6/2, a.MAC().ActiveName(flexran.OpDLUESched))
}

// pushViaApp sends the VSF-updation message through a one-shot app using
// the northbound API, exactly as a management application would, and
// returns the command's sequence number.
func pushViaApp(m *flexran.Master, prog *flexran.VSFProgram) uint64 {
	p := &pusher{prog: prog}
	m.Register(p, 1)
	m.Tick()
	return p.seq
}

type pusher struct {
	prog *flexran.VSFProgram
	done bool
	seq  uint64
}

func (*pusher) Name() string { return "vsf-pusher" }

func (p *pusher) OnTick(ctx *controller.Context, _ lte.Subframe) {
	if p.done {
		return
	}
	p.done = true
	up := &protocol.VSFUpdate{
		Module: "mac", VSF: flexran.OpDLUESched, Name: "pf-dsl",
		VSFKind: protocol.VSFProgram, Program: wire.Marshal(p.prog),
	}
	up.Sign(protocol.DefaultTrustKey)
	seq, err := ctx.Send(1, up)
	if err != nil {
		panic(err)
	}
	p.seq = seq
}
