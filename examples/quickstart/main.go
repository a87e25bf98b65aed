// Quickstart: the minimal platform demo, now a thin runner over the
// declarative scenario library — scenarios/quickstart.yaml describes the
// topology (one master, one agent eNodeB, two UEs) and this program just
// executes it and cross-checks the master's RIB against the data plane.
// Topology setup lives in the scenario engine; nothing is hand-wired here.
package main

import (
	"fmt"

	"flexran"
)

func main() {
	sc, err := flexran.LoadNamedScenario("quickstart")
	if err != nil {
		panic(err)
	}
	res, err := sc.Execute()
	if err != nil {
		panic(err)
	}
	sum := res.Summary
	if sum.Attached != sum.UEs {
		panic(fmt.Sprintf("only %d/%d UEs attached", sum.Attached, sum.UEs))
	}
	fmt.Printf("scenario %q: %d UEs attached in %d TTIs, then %d TTIs of traffic\n",
		sum.Name, sum.Attached, sum.AttachTTIs, sum.RunTTIs)
	fmt.Printf("aggregate DL: %.2f Mb/s (%d HARQ retx)\n", sum.ThroughputMbps, sum.HARQRetx)

	// The master's consolidated view (the RIB) saw the same network the
	// data plane served.
	s := res.Runtime.Sim
	rib := s.Master.RIB()
	for _, id := range rib.Agents() {
		fmt.Printf("master RIB: agent %d connected=%v ues=%d\n",
			id, rib.Connected(id), rib.UECount(id))
		for _, u := range rib.UEsOf(id) {
			fmt.Printf("  rnti=%d cqi=%d dl_rate=%d kb/s\n", u.RNTI, u.CQI, u.DLRateKbps)
		}
	}
	sf, _ := rib.AgentSF(1)
	fmt.Printf("agent time at master: %v (data plane at %v)\n", sf, s.Now())
	fmt.Printf("digest: %s\n", sum.Digest)
}
