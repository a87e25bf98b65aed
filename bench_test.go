package flexran_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (each runs the corresponding experiment driver at
// a reduced measurement window and reports domain metrics), plus the
// micro-benchmarks that bench/ has no metric for: VSF activation (~100 ns
// in §5.4), VSF install and DSL evaluation, the agent report TTI, the
// IMSI lookup, and the idle fast-forward pair. The codec, transport,
// eNodeB step, scheduler and full-platform TTI are measured end to end
// and per layer by the bench/ module, the one performance ledger; no
// benchmark here keeps a stored baseline. Allocation budgets are tests,
// in alloc_gate_test.go.
//
// Run everything with:
//
//	go test -run '^$' -bench=. -benchmem .

import (
	"testing"

	"flexran"
	"flexran/internal/agent"
	"flexran/internal/experiments"
	"flexran/internal/protocol"
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

// benchOp times the operation build returns; the builders are shared with
// TestAllocGateBudgets, so the gate and the benchmark measure one fixture.
func benchOp(b *testing.B, build func(testing.TB) func()) {
	op := build(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkVSFSwap measures VSF activation: the paper reports ~103 ns to
// swap between a local and a remote scheduler (§5.4).
func BenchmarkVSFSwap(b *testing.B) { benchOp(b, vsfSwapOp) }

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
func BenchmarkDSLEval(b *testing.B) { benchOp(b, dslEvalOp) }

// BenchmarkAgentReportTTI measures one agent report TTI: a 16-UE eNodeB
// subframe with a per-TTI full-stats subscription — data-plane step,
// snapshot, in-place report build and emit (the sender half of the
// dominant Fig. 7a message, before serialization).
func BenchmarkAgentReportTTI(b *testing.B) { benchOp(b, agentReportTTIOp) }

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
	s := flexran.MustNewSim(flexran.SimConfig{Workers: 1, NoFastForward: noFF}, enbs...)
	s.WaitAttached(2000)
	return s
}

// BenchmarkSimTTISparse measures one TTI over 4096 eNodeBs with 1% of
// them active: the engine's phases walk only the awake set and the wake
// calendar returns each sleeper when it is due, so the cost is ~41 real
// eNodeB steps plus a scan of the 512-byte awake bitset. Compare
// BenchmarkSimTTISparseNoSkip — the same world with the engine disabled —
// for the speedup the skip machinery buys at scale.
func BenchmarkSimTTISparse(b *testing.B) { benchOp(b, sparseSimOp(false)) }

// BenchmarkSimTTISparseNoSkip is the no-skip baseline of the sparse-scale
// pair: every one of the 4096 eNodeBs steps every subframe.
func BenchmarkSimTTISparseNoSkip(b *testing.B) { benchOp(b, sparseSimOp(true)) }
