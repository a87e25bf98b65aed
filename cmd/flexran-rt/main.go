// flexran-rt is the wall-clock deadline harness: it runs a mid-size
// topology (default 16 eNodeBs × 32 UEs) as a real deployment at the fixed
// 1 ms TTI — flexran.StartLoopback: master served over loopback TCP, one
// paced agent loop per eNodeB — for a fixed duration, then emits a JSON
// deadline report: the master's and the agents' loop views
// (metrics.LoopView, the northbound /stats/loop shape), with tick and miss
// counts and per-leg latency quantiles (p50/p99/p99.9). Each eNodeB is a
// node built from an ENBSpec, its CBR downlink injected on its agent loop.
// CI gates on the miss rate via -max-miss-rate.
//
// Usage:
//
//	flexran-rt [-enbs 16] [-ues 32] [-seconds 5] [-stats-period 1]
//	           [-dl-kbps 500] [-out report.json] [-max-miss-rate 1.0]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"flexran"
	"flexran/internal/metrics"
)

type reportJSON struct {
	ENBs        int     `json:"enbs"`
	UEsPerENB   int     `json:"ues_per_enb"`
	Seconds     float64 `json:"seconds"`
	PeriodMs    float64 `json:"period_ms"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	RIBAgents   int     `json:"rib_agents"`
	RIBUEs      int     `json:"rib_ues"`
	MasterCycle uint64  `json:"master_cycle"`

	Master metrics.LoopView `json:"master"`
	Agents metrics.LoopView `json:"agents"`
}

func main() {
	enbs := flag.Int("enbs", 16, "number of agent-enabled eNodeBs")
	ues := flag.Int("ues", 32, "UEs per eNodeB")
	seconds := flag.Float64("seconds", 5, "run duration (the report gives the time the run lasted)")
	statsPeriod := flag.Int("stats-period", 1, "statistics reporting period in TTIs")
	rttPeriod := flag.Int("rtt-period", 16, "command round-trip probe period in TTIs")
	dlKbps := flag.Float64("dl-kbps", 500, "downlink CBR load per UE (kb/s)")
	out := flag.String("out", "", "write the JSON deadline report to this file (stdout summary either way)")
	maxMissRate := flag.Float64("max-miss-rate", 1.0, "fail (exit 1) if any loop's deadline-miss rate exceeds this")
	flag.Parse()

	opts := flexran.DefaultMasterOptions()
	opts.StatsPeriodTTI = *statsPeriod
	opts.RTTProbePeriodTTI = *rttPeriod
	m := flexran.NewMaster(opts)
	masterLS := &flexran.LoopStats{}
	// One shared sink for all agent loops: every field is concurrency-safe,
	// so the histograms aggregate the fleet and the counters sum the TTIs
	// every loop owed.
	agentLS := &flexran.LoopStats{}
	specs := make([]flexran.ENBSpec, *enbs)
	for i := range specs {
		id := flexran.ENBID(i + 1)
		specs[i] = flexran.ENBSpec{ID: id, Seed: int64(id), Agent: true}
		for u := 0; u < *ues; u++ {
			specs[i].UEs = append(specs[i].UEs, flexran.UESpec{
				IMSI:    uint64(id)*100000 + uint64(u),
				Channel: flexran.FadingChannel(12, 0.99, 1.5, int64(u+1)),
				DL:      flexran.NewCBR(*dlKbps),
			})
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	l, err := flexran.ListenControl("127.0.0.1:0")
	check(err)
	start := time.Now()
	lb, err := flexran.StartLoopback(m, l, masterLS, agentLS, specs...)
	check(err)

	select {
	case <-ctx.Done():
	case <-time.After(time.Duration(*seconds * float64(time.Second))):
	}
	ribAgents := len(m.RIB().Agents())
	ribUEs := 0
	for _, id := range m.RIB().Agents() {
		ribUEs += m.RIB().UECount(id)
	}
	cycle := m.Cycle()
	// The time the run lasted, not the -seconds asked for: a signal can
	// end it early, and the report's per-second rates divide by this.
	elapsed := time.Since(start).Seconds()
	if err := lb.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "flexran-rt: agent:", err)
	}

	rep := reportJSON{
		ENBs: *enbs, UEsPerENB: *ues, Seconds: elapsed, PeriodMs: 1, GOMAXPROCS: runtime.GOMAXPROCS(0),
		RIBAgents: ribAgents, RIBUEs: ribUEs, MasterCycle: uint64(cycle),
		Master: masterLS.View(), Agents: agentLS.View(),
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	check(err)
	if *out != "" {
		check(os.WriteFile(*out, append(blob, '\n'), 0o644))
	} else {
		fmt.Println(string(blob))
	}

	fmt.Printf("flexran-rt: %d eNB × %d UE, %.1f s @ 1ms TTI: rib agents=%d ues=%d\n",
		*enbs, *ues, elapsed, ribAgents, ribUEs)
	fmt.Printf("master: %s\n", masterLS.Profile())
	fmt.Printf("agents: %s\n", agentLS.Profile())

	fail := ribAgents != *enbs
	if fail {
		fmt.Fprintf(os.Stderr, "flexran-rt: FAIL: only %d/%d agents in the RIB — the run measured a broken deployment\n", ribAgents, *enbs)
	}
	for _, g := range []struct {
		name string
		ls   *flexran.LoopStats
	}{{"master", masterLS}, {"agents", agentLS}} {
		if r := g.ls.MissRate(); r > *maxMissRate {
			fmt.Fprintf(os.Stderr, "flexran-rt: FAIL: %s deadline-miss rate %.4f exceeds %.4f\n", g.name, r, *maxMissRate)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}

// check exits on a setup or output error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexran-rt:", err)
		os.Exit(1)
	}
}
