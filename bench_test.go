package flexran_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (each runs the corresponding experiment driver at
// a reduced measurement window and reports domain metrics), plus
// micro-benchmarks for the latency/throughput claims the paper makes about
// the platform itself: VSF activation (~100 ns in §5.4), per-TTI agent
// report serialization, DSL scheduler evaluation, data-plane stepping and
// master cycle cost.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem .

import (
	"fmt"
	"testing"

	"flexran"
	"flexran/internal/agent"
	"flexran/internal/enb"
	"flexran/internal/experiments"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
	"flexran/internal/vsfdsl"
	"flexran/internal/wire"
)

// benchExperiment runs one experiment driver per iteration and reports a
// headline metric through b.ReportMetric.
func benchExperiment(b *testing.B, id string, scale float64, metric func(experiments.Result) (float64, string)) {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, scale)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if metric != nil && last != nil {
		v, unit := metric(last)
		b.ReportMetric(v, unit)
	}
}

// --- Fig. 6: agent overhead and transparency ---

func BenchmarkFig6aOverhead(b *testing.B) {
	benchExperiment(b, "fig6a", 0.1, func(r experiments.Result) (float64, string) {
		f := r.(*experiments.Fig6aResult)
		return f.Row("flexran/ue").CPUPerSec, "ms/sim-s"
	})
}

func BenchmarkFig6bThroughput(b *testing.B) {
	benchExperiment(b, "fig6b", 0.1, func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig6bResult).FlexDL, "Mb/s"
	})
}

// --- Fig. 7: signaling overhead ---

func BenchmarkFig7aAgentToMaster(b *testing.B) {
	benchExperiment(b, "fig7a", 0.1, func(r experiments.Result) (float64, string) {
		f := r.(*experiments.Fig7Result)
		return f.Total(len(f.UECounts) - 1), "Mb/s@50UE"
	})
}

func BenchmarkFig7bMasterToAgent(b *testing.B) {
	benchExperiment(b, "fig7b", 0.1, func(r experiments.Result) (float64, string) {
		f := r.(*experiments.Fig7Result)
		return f.Total(len(f.UECounts) - 1), "Mb/s@50UE"
	})
}

// --- Fig. 8: master controller resources ---

func BenchmarkFig8MasterCycle(b *testing.B) {
	benchExperiment(b, "fig8", 0.1, func(r experiments.Result) (float64, string) {
		f := r.(*experiments.Fig8Result)
		return f.CoreMs[len(f.CoreMs)-1] * 1000, "us/cycle@3agents"
	})
}

// --- Fig. 9: control latency vs schedule-ahead ---

func BenchmarkFig9LatencyGrid(b *testing.B) {
	benchExperiment(b, "fig9", 0.05, func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig9Result).At(0, 4), "Mb/s@rtt0"
	})
}

// --- §5.4: control delegation ---

func BenchmarkDelegationSwapSweep(b *testing.B) {
	benchExperiment(b, "delegation", 0.1, func(r experiments.Result) (float64, string) {
		d := r.(*experiments.DelegationResult)
		return float64(d.PushBytes), "push-bytes"
	})
}

// --- Fig. 10: eICIC ---

func BenchmarkFig10EICIC(b *testing.B) {
	benchExperiment(b, "fig10", 0.1, func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig10Result).Optimized, "Mb/s-optimized"
	})
}

// --- Table 2 and Fig. 11: MEC / DASH ---

func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", 0.2, func(r experiments.Result) (float64, string) {
		tcp, _ := r.(*experiments.Table2Result).Row(10)
		return tcp, "Mb/s-tcp-cqi10"
	})
}

func BenchmarkFig11aLowVariability(b *testing.B) {
	benchExperiment(b, "fig11a", 0.2, func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig11Result).AssistedMeanBitrate, "Mb/s-assisted"
	})
}

func BenchmarkFig11bHighVariability(b *testing.B) {
	benchExperiment(b, "fig11b", 0.2, func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig11Result).AssistedMeanBitrate, "Mb/s-assisted"
	})
}

// --- Fig. 12: RAN sharing ---

func BenchmarkFig12aDynamicShares(b *testing.B) {
	benchExperiment(b, "fig12a", 0.05, func(r experiments.Result) (float64, string) {
		f := r.(*experiments.Fig12aResult)
		return f.MVNO[1], "Mb/s-mvno-boost"
	})
}

func BenchmarkFig12bPolicyCDF(b *testing.B) {
	benchExperiment(b, "fig12b", 0.1, func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig12bResult).PremiumCDF.Quantile(0.5), "kbps-premium"
	})
}

// --- Platform micro-benchmarks ---

// BenchmarkVSFSwap measures VSF activation: the paper reports ~103 ns to
// swap between a local and a remote scheduler (§5.4).
func BenchmarkVSFSwap(b *testing.B) {
	m := agent.NewMACModule()
	names := [2]string{"rr", "pf"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Activate(agent.OpDLUESched, names[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVSFInstall measures the full code-push path: decode + verify +
// cache a pushed DSL program.
func BenchmarkVSFInstall(b *testing.B) {
	m := agent.NewMACModule()
	prog := vsfdsl.MustCompile(
		"queue > 0 ? inst_rate / max(avg_rate, 1) : -1",
		[]string{"queue", "inst_rate", "avg_rate"})
	up := &protocol.VSFUpdate{
		Module: "mac", VSF: agent.OpDLUESched, Name: "pushed",
		VSFKind: protocol.VSFProgram, Program: wire.Marshal(prog),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.InstallVSF(up); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSLEval measures one sandboxed scheduling-metric evaluation.
func BenchmarkDSLEval(b *testing.B) {
	p := vsfdsl.MustCompile(
		"queue > 0 ? inst_rate / max(avg_rate, 1) : -1",
		[]string{"queue", "inst_rate", "avg_rate"})
	env := []float64{15000, 23800, 4000}
	stack := make([]float64, p.MaxStack())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.EvalStack(env, stack); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatsReplyEncode measures serializing one 16-UE per-TTI report
// (the dominant message of Fig. 7a).
func BenchmarkStatsReplyEncode(b *testing.B) {
	rep := &protocol.StatsReply{ID: 1, SF: 1000}
	for i := 0; i < 16; i++ {
		rep.UEs.Append(gateUERow(i))
	}
	msg := protocol.New(1, 1000, rep)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(protocol.Encode(msg))))
	}
}

// BenchmarkMessageRoundTripPooled measures the PR 3 southbound fast path:
// serializing a 32-UE StatsReply into a reused buffer (in-place nested
// encoding, pooled encoder) and decoding it through the protocol free
// lists (pooled envelope + payload, recycled scratch). Steady state is
// 0 allocs/op; compare BenchmarkStatsReplyEncode for the encode half on
// its own.
func BenchmarkMessageRoundTripPooled(b *testing.B) {
	msg := protocol.New(1, 1000, gateStatsReply(32))
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = protocol.AppendMessage(buf[:0], msg)
		m, err := protocol.DecodePooled(buf)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
		b.SetBytes(int64(len(buf)))
	}
}

// BenchmarkConnSend measures one framed transport send of a 16-UE report:
// header and payload coalesced into the connection's reused write buffer,
// one Write per message (0 allocs/op at steady state).
func BenchmarkConnSend(b *testing.B) {
	c := newPipeConn(b)
	msg := protocol.New(1, 1000, gateStatsReply(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnSendBatch measures a coalesced 16-message flush through
// Conn.SendBatch: every frame of the batch is assembled into one buffer
// and written with a single Write — one syscall per flushed batch instead
// of one (pre-PR 3: two) per message.
func BenchmarkConnSendBatch(b *testing.B) {
	c := newPipeConn(b)
	msgs := make([]*protocol.Message, 16)
	for i := range msgs {
		msgs[i] = protocol.New(1, 1000, &protocol.SubframeTrigger{SF: lte.Subframe(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendBatch(msgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(msgs))/b.Elapsed().Seconds()/1e6, "Mmsg/s")
}

// BenchmarkAgentReportTTI measures one agent report TTI: a 16-UE eNodeB
// subframe with a per-TTI full-stats subscription — data-plane step,
// snapshot, in-place report build and emit (the sender half of the
// dominant Fig. 7a message, before serialization).
func BenchmarkAgentReportTTI(b *testing.B) {
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	a := agent.New(e, agent.Options{})
	a.Connect(func(m *protocol.Message) error { return nil })
	var rntis []lte.RNTI
	for i := 0; i < 16; i++ {
		rnti, err := e.AddUE(enb.UEParams{IMSI: uint64(i + 1), Cell: 0, Channel: radio.Fixed(12)})
		if err != nil {
			b.Fatal(err)
		}
		rntis = append(rntis, rnti)
	}
	a.Deliver(protocol.New(1, 0, &protocol.StatsRequest{
		ID: 1, Mode: protocol.StatsPeriodic, PeriodTTI: 1, Flags: protocol.StatsAll,
	}))
	for i := 0; i < 200; i++ {
		e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rntis {
			e.DLEnqueue(r, 3000)
		}
		e.Step()
	}
}

// BenchmarkENBStep measures one data-plane TTI with 16 backlogged UEs.
func BenchmarkENBStep(b *testing.B) {
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	var rntis []lte.RNTI
	for i := 0; i < 16; i++ {
		rnti, err := e.AddUE(enb.UEParams{IMSI: uint64(i), Cell: 0, Channel: radio.Fixed(12)})
		if err != nil {
			b.Fatal(err)
		}
		rntis = append(rntis, rnti)
	}
	for i := 0; i < 100; i++ {
		e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rntis {
			e.DLEnqueue(r, 3000)
		}
		e.Step()
	}
}

// BenchmarkSchedulerPF measures one PF scheduling decision over 16 UEs.
func BenchmarkSchedulerPF(b *testing.B) {
	pf := sched.NewProportionalFair()
	in := sched.Input{SF: 1, Dir: lte.Downlink, TotalPRB: 50}
	for i := 0; i < 16; i++ {
		in.UEs = append(in.UEs, sched.UEInfo{
			RNTI: lte.RNTI(i + 1), CQI: lte.CQI(3 + i%12),
			QueueBytes: 20000, AvgRateKbps: float64(500 + i*100),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.SF++
		pf.Schedule(in)
	}
}

// BenchmarkSimTTI measures one full-platform TTI: EPC + eNodeB + agent +
// protocol + master with 16 UEs and per-TTI reporting.
func BenchmarkSimTTI(b *testing.B) {
	opts := flexran.DefaultMasterOptions()
	var specs []flexran.UESpec
	for i := 0; i < 16; i++ {
		specs = append(specs, flexran.UESpec{
			IMSI: uint64(i + 1), Channel: flexran.FixedChannel(12),
			DL: flexran.NewCBR(500),
		})
	}
	s := flexran.MustNewSim(flexran.SimConfig{Master: &opts},
		flexran.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: specs})
	s.WaitAttached(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// newScaleSim builds the 64-eNodeB scale scenario used by the parallel
// engine benchmark: 64 agents with per-TTI reporting, 8 backlogged UEs
// each (512 UEs total), stepped by a worker pool of the given size.
func newScaleSim(workers int) *flexran.Sim {
	opts := flexran.DefaultMasterOptions()
	var enbs []flexran.ENBSpec
	for e := 0; e < 64; e++ {
		spec := flexran.ENBSpec{
			ID: flexran.ENBID(e + 1), Agent: true, Seed: int64(e + 1),
		}
		for u := 0; u < 8; u++ {
			spec.UEs = append(spec.UEs, flexran.UESpec{
				IMSI:    uint64(e*100 + u + 1),
				Channel: flexran.FixedChannel(flexran.CQI(6 + (e+u)%9)),
				DL:      flexran.NewCBR(500),
			})
		}
		enbs = append(enbs, spec)
	}
	s := flexran.MustNewSim(flexran.SimConfig{Master: &opts, Workers: workers}, enbs...)
	s.WaitAttached(2000)
	return s
}

// BenchmarkHandoverScenario measures a mobility-heavy TTI: two cells,
// eight walkers ping-ponging across the border with geometry-derived CQI,
// A3 evaluation at the agents and the MobilityManager executing handovers
// — the full control loop per subframe, migrations included.
func BenchmarkHandoverScenario(b *testing.B) {
	rmap := flexran.NewRadioMap(
		flexran.RadioSite{ENB: 1, Cell: 0, Tx: flexran.Transmitter{Pos: flexran.Point{X: 0}, PowerDBm: 43}},
		flexran.RadioSite{ENB: 2, Cell: 0, Tx: flexran.Transmitter{Pos: flexran.Point{X: 1000}, PowerDBm: 43}},
	)
	spec1 := flexran.ENBSpec{ID: 1, Agent: true, Seed: 1}
	for u := 0; u < 8; u++ {
		spec1.UEs = append(spec1.UEs, flexran.UESpec{
			IMSI: uint64(100 + u),
			Channel: flexran.NewGeoChannel(rmap, &flexran.WaypointMobility{
				Path:     []flexran.Point{{X: 200}, {X: 800}},
				SpeedMps: float64(80 + 20*u),
				PingPong: true,
			}, 1),
			DL: flexran.NewCBR(400),
		})
	}
	opts := flexran.DefaultMasterOptions()
	s := flexran.MustNewSim(flexran.SimConfig{Master: &opts},
		spec1, flexran.ENBSpec{ID: 2, Agent: true, Seed: 2})
	s.Master.Register(flexran.NewMobilityManager(), 5)
	s.WaitAttached(2000)
	base := len(s.Handovers()) // exclude any warmup-phase migrations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(len(s.Handovers())-base)/float64(b.N)*1000, "handovers/ksf")
}

// newSparseSim builds the sparse-activity scale scenario behind the idle
// fast-forward benchmarks: 4096 masterless eNodeBs with two silent UEs
// each, plus one always-on CBR UE at every 100th eNodeB — so 1% of the
// fleet has work in any subframe and the other 99% is provably idle.
func newSparseSim(noFF bool) *flexran.Sim {
	var enbs []flexran.ENBSpec
	for e := 0; e < 4096; e++ {
		spec := flexran.ENBSpec{ID: flexran.ENBID(e + 1), Seed: int64(e + 1)}
		for u := 0; u < 2; u++ {
			spec.UEs = append(spec.UEs, flexran.UESpec{
				IMSI:    uint64(e*10 + u + 1),
				Channel: flexran.FixedChannel(flexran.CQI(6 + (e+u)%9)),
			})
		}
		if e%100 == 0 {
			spec.UEs = append(spec.UEs, flexran.UESpec{
				IMSI:    uint64(e*10 + 9),
				Channel: flexran.FixedChannel(12),
				DL:      flexran.NewCBR(400),
			})
		}
		enbs = append(enbs, spec)
	}
	s := flexran.MustNewSim(flexran.SimConfig{NoFastForward: noFF}, enbs...)
	s.WaitAttached(2000)
	return s
}

// BenchmarkSimTTISparse measures one TTI over 4096 eNodeBs with 1% of
// them active: the idle fast-forward engine skips the sleeping 99%, so
// the cost is the sleep bookkeeping plus ~41 real eNodeB steps. Compare
// BenchmarkSimTTISparseNoSkip — the same world with the engine disabled —
// for the speedup the skip machinery buys at scale.
func BenchmarkSimTTISparse(b *testing.B) {
	s := newSparseSim(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSimTTISparseNoSkip is the no-skip baseline of the sparse-scale
// pair: every one of the 4096 eNodeBs steps every subframe.
func BenchmarkSimTTISparseNoSkip(b *testing.B) {
	s := newSparseSim(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkIMSILookup measures the per-subscriber O(1) report path on a
// 10,000-UE eNodeB: the compact IMSI→slot map plus a struct-of-arrays
// snapshot gather, the lookup the EPC accounting sweep performs per
// subscriber at scale.
func BenchmarkIMSILookup(b *testing.B) {
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := e.AddUE(enb.UEParams{IMSI: uint64(i + 1), Cell: 0, Channel: radio.Fixed(10)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := e.UEReportByIMSI(uint64(i%n + 1))
		if !ok || r.IMSI != uint64(i%n+1) {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkSimTTIParallel sweeps the sharded TTI engine's worker-pool
// size over the 64-eNodeB scenario. workers=1 is the serial engine
// baseline; the speedup at higher counts is the Fig. 8-style scaling
// claim of the sharded engine (expect ~linear up to the core count —
// runs on a single-core machine show ~1x throughout).
func BenchmarkSimTTIParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := newScaleSim(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
