// flexran-enb runs an agent-enabled simulated eNodeB in real time (one
// subframe per millisecond) and connects its FlexRAN agent to a master
// over TCP. Emulated UEs with configurable channel quality and downlink
// load attach at startup. The eNodeB is the simulator's node, built from an
// ENBSpec; its traffic is injected on the subframe loop.
//
// The subframe loop runs on the deadline-accounted real-time engine:
// SIGUSR1 (or -profile, which prints every 2 s) dumps the deadline-miss
// counters and the step/report latency histograms, and shutdown (SIGINT
// or SIGTERM) flushes a final dump before exiting.
//
// Usage:
//
//	flexran-enb [-master 127.0.0.1:2210] [-id 1] [-ues 4] [-cqi 12] [-dl-kbps 2000] [-profile]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexran"
)

func main() {
	masterAddr := flag.String("master", "127.0.0.1:2210", "master controller address")
	id := flag.Uint("id", 1, "eNodeB identifier")
	ues := flag.Int("ues", 4, "number of emulated UEs")
	cqi := flag.Uint("cqi", 12, "mean channel quality (Gauss-Markov fading around it)")
	dlKbps := flag.Float64("dl-kbps", 2000, "downlink CBR load per UE (kb/s)")
	profile := flag.Bool("profile", false, "print the deadline/latency profile on exit")
	flag.Parse()

	spec := flexran.ENBSpec{ID: flexran.ENBID(*id), Seed: int64(*id), Agent: true}
	for i := 0; i < *ues; i++ {
		spec.UEs = append(spec.UEs, flexran.UESpec{
			IMSI:    uint64(*id)*1000 + uint64(i),
			Channel: flexran.FadingChannel(float64(*cqi), 0.99, 1.5, int64(i+1)),
			DL:      flexran.NewCBR(*dlKbps),
		})
	}
	n, err := flexran.NewNode(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexran-enb:", err)
		os.Exit(1)
	}

	stop := make(chan struct{})
	ls := &flexran.LoopStats{}
	go func() {
		// SIGTERM is the normal container/systemd stop signal; trapping
		// only SIGINT would hard-kill the subframe loop mid-write.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		close(stop)
	}()
	go func() {
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		for {
			select {
			case <-stop:
				return
			case <-usr1:
				fmt.Println(ls.Profile())
			}
		}
	}()
	if *profile {
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					fmt.Println(ls.Profile())
				}
			}
		}()
	}

	fmt.Printf("flexran-enb %d: %d UEs, connecting to %s\n", *id, *ues, *masterAddr)
	err = flexran.RunAgentLoop(n, *masterAddr, stop, flexran.RTConfig{Stats: ls})
	// Flush the final accounting whether the loop ended by signal or by a
	// transport failure.
	fmt.Println(ls.Profile())
	if err != nil {
		fmt.Fprintln(os.Stderr, "agent:", err)
		os.Exit(1)
	}
}
