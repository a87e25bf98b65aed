package main

import (
	"cmp"
	"slices"
	"time"

	"flexran"
	"flexran/internal/conc"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/sched"
)

// The replayed probes time single layers through their public functions,
// on inputs taken from the workload's own world once its timed sections
// and digests are done (the probes spend the world). They exist for the
// Sim-driven workloads, where the driver cannot put a span around a layer
// inside Sim.Step; tcp-loop measures the same layers as spans.

// probes holds one workload's replay results; zero means "no such work in
// this workload", which is itself a prediction (vanilla-sim and sparse-sim
// must report no protocol work).
type probes struct {
	encodeUs, decodeUs  float64
	reportBytes         int
	enbStepUs, injectUs float64
	schedUs, forkjoinUs float64
}

// medianUs times fn over batches of per calls and returns the median
// per-call time in microseconds.
func medianUs(batches, per int, fn func()) float64 {
	times := make([]float64, batches)
	for b := range times {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		times[b] = float64(time.Since(t0)) / 1e3 / float64(per)
	}
	return median(times)
}

// captureReport re-points an agent at a capturing transport and steps its
// eNodeB until the standing subscription emits a StatsReply, returning the
// report's wire bytes: the workload's own dominant message.
func captureReport(a *flexran.Agent) []byte {
	var wire []byte
	a.Connect(func(m *protocol.Message) error {
		if _, ok := m.Payload.(*protocol.StatsReply); ok && wire == nil {
			wire = protocol.AppendMessage(nil, m)
		}
		return nil
	})
	for i := 0; i < 8 && wire == nil; i++ {
		a.ENB().Step()
	}
	return wire
}

// runProbes replays the layers on w's probe target. iters scales every
// loop (the smoke test passes a small value).
func runProbes(w world, iters int) (probes, error) {
	var p probes
	p.forkjoinUs = medianUs(20, iters, func() { conc.ForEach(2, 64, func(int) {}) })

	enb, ues, epc, agent := w.probeTarget()
	if enb == nil {
		return p, nil
	}
	inject := func(sf flexran.Subframe) {
		for _, u := range ues {
			if u.DL == nil {
				continue
			}
			if b := u.DL.BytesAt(sf); b > 0 {
				epc.Downlink(u.IMSI, b) //nolint:errcheck // the bearer exists; a UE handed over elsewhere still has one
			}
		}
	}
	// One data-plane subframe of this eNodeB, with whatever its agent
	// reports still going down the world's own transport.
	stepNs := make([]float64, iters)
	sf := enb.Now()
	for i := range stepNs {
		inject(sf)
		t0 := time.Now()
		enb.Step()
		stepNs[i] = float64(time.Since(t0))
		sf++
	}
	p.enbStepUs = median(stepNs) / 1e3
	p.injectUs = medianUs(20, iters/10+1, func() { inject(sf); sf++ })

	in := sched.Input{SF: sf, Dir: lte.Downlink, TotalPRB: lte.BW10MHz.PRBs()}
	reports := enb.UEReports()
	slices.SortFunc(reports, func(a, b flexran.UEReport) int { return cmp.Compare(a.RNTI, b.RNTI) })
	for _, r := range reports {
		if len(in.UEs) == 32 {
			break
		}
		in.UEs = append(in.UEs, sched.UEInfo{
			RNTI: r.RNTI, CQI: r.CQI, QueueBytes: r.DLQueue + 1500,
			AvgRateKbps: r.AvgDLKbps, LastSched: r.LastSched, Group: r.Group,
		})
	}
	pf := sched.NewProportionalFair()
	p.schedUs = medianUs(20, iters, func() { in.SF++; pf.Schedule(in) })

	if agent == nil {
		return p, nil
	}
	wire := captureReport(agent)
	if wire == nil {
		return p, nil
	}
	p.reportBytes = len(wire)
	p.decodeUs = medianUs(20, iters, func() {
		m, err := protocol.DecodePooled(wire)
		if err != nil {
			panic(err) // the bytes came out of AppendMessage a moment ago
		}
		m.Release()
	})
	msg, err := protocol.DecodePooled(wire)
	if err != nil {
		return p, err
	}
	buf := make([]byte, 0, len(wire))
	p.encodeUs = medianUs(20, iters, func() { buf = protocol.AppendMessage(buf[:0], msg) })
	msg.Release()
	return p, nil
}
