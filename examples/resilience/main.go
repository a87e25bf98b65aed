// Resilience: the controller surviving a flaky control plane, driven by
// the declarative scenario library. scenarios/chaos-reconnect.yaml
// scripts a storm of link cuts, restores and back-to-back agent restarts
// over three eNodeBs; this program runs it, prints the lifecycle timeline
// the engine recorded, and verifies every agent ends the run reconnected
// with its full pre-failure RIB state — heartbeat liveness, epoch fencing
// and one-cycle resync all holding, with zero hand-wired topology code.
package main

import (
	"fmt"

	"flexran"
)

func main() {
	sc, err := flexran.LoadNamedScenario("chaos-reconnect")
	if err != nil {
		panic(err)
	}
	res, err := sc.Execute()
	if err != nil {
		panic(err)
	}
	sum := res.Summary

	fmt.Printf("scenario %q: %d faults injected across %d eNodeBs\n\n",
		sum.Name, sum.FaultsInjected, sum.ENBs)
	fmt.Println("observed lifecycle events:")
	for _, ev := range sum.Lifecycle {
		state := "DOWN"
		if ev.Up {
			state = "UP (resynced)"
		}
		fmt.Printf("  cycle %5d: eNB %d %s\n", ev.Cycle, ev.ENB, state)
	}

	// Every agent must end the run connected with its pre-failure UEs.
	rib := res.Runtime.Sim.Master.RIB()
	fmt.Println("\nfinal RIB state:")
	ok := true
	for enbID, wantUEs := range map[flexran.ENBID]int{1: 2, 2: 2, 3: 1} {
		connected := rib.Connected(enbID)
		count := rib.UECount(enbID)
		fmt.Printf("  eNB %d: connected=%v ues=%d (want %d)\n", enbID, connected, count, wantUEs)
		ok = ok && connected && count == wantUEs
	}

	switch {
	case !ok:
		panic("an agent did not recover its pre-failure RIB state")
	case sum.AgentDowns < 3:
		panic(fmt.Sprintf("lifecycle dispatch incomplete: only %d downs", sum.AgentDowns))
	case sum.AgentUps <= sum.AgentDowns:
		panic(fmt.Sprintf("agents did not all recover: %d downs, %d ups", sum.AgentDowns, sum.AgentUps))
	}
	fmt.Printf("\nresilience OK: %d downs, %d ups; heartbeat detection, epoch fencing and resync all held\n",
		sum.AgentDowns, sum.AgentUps)
	fmt.Printf("digest: %s\n", sum.Digest)
}
