package flexran_test

import (
	"runtime"
	"testing"
	"time"

	"flexran"
)

// startAgentENB builds an agent-enabled eNodeB with nUEs attached UEs.
func startAgentENB(t *testing.T, id flexran.ENBID, nUEs int) *flexran.Agent {
	t.Helper()
	e := flexran.NewENB(flexran.ENBConfig{ID: id, Seed: int64(id)})
	a := flexran.NewAgent(e, flexran.AgentOptions{})
	for i := 0; i < nUEs; i++ {
		if _, err := e.AddUE(flexran.UEParams{
			IMSI: uint64(id)*1000 + uint64(i), Cell: 0,
			Channel: flexran.FixedChannel(12),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRealTimeStatsExchange runs a master and two agents over loopback TCP
// with LoopStats attached on both sides and checks that every instrumented
// leg of the 1 ms budget actually collects samples: master ticks, the
// ingest leg, the Echo-TS round trip, agent report emission, and the
// agents' own deadline accounting.
func TestRealTimeStatsExchange(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	opts := flexran.DefaultMasterOptions()
	opts.StatsPeriodTTI = 1
	opts.RTTProbePeriodTTI = 8
	m := flexran.NewMaster(opts)
	masterLS := &flexran.LoopStats{}
	agentLS := &flexran.LoopStats{}

	l, err := flexran.ListenControl("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()

	stop := make(chan struct{})
	errc := make(chan error, 3)
	go func() {
		errc <- flexran.ServeMasterListener(m, l, stop, flexran.RTConfig{Stats: masterLS})
	}()
	for _, id := range []flexran.ENBID{7, 8} {
		a := startAgentENB(t, id, 2)
		go func() {
			errc <- flexran.RunAgentLoopRT(a, addr, stop, flexran.RTConfig{Stats: agentLS})
		}()
	}

	waitFor(t, 5*time.Second, "RIB population", func() bool {
		return m.RIB().Connected(7) && m.RIB().Connected(8) &&
			m.RIB().UECount(7) == 2 && m.RIB().UECount(8) == 2
	})
	waitFor(t, 5*time.Second, "latency samples on every leg", func() bool {
		return masterLS.Ticks() > 0 && masterLS.Step.Count() > 0 &&
			masterLS.Ingest.Count() > 0 && masterLS.RTT.Count() > 0 &&
			agentLS.Ticks() > 0 && agentLS.Step.Count() > 0 &&
			agentLS.Report.Count() > 0
	})

	// The round trip is measured over loopback, so anything beyond a few
	// seconds means the timestamp mirroring is broken, not the network.
	if rtt := masterLS.RTT.Summary(); rtt.P50 <= 0 || rtt.P50 > 2*time.Second {
		t.Errorf("implausible RTT p50: %v", rtt.P50)
	}
	if masterLS.Misses() > masterLS.Ticks() {
		t.Errorf("misses=%d > ticks=%d", masterLS.Misses(), masterLS.Ticks())
	}

	close(stop)
	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			t.Errorf("loop error: %v", err)
		}
	}
}

// TestRealTimeAgentRestart stops an agent loop, restarts the agent, and
// reconnects it: the master must see the session drop and the RIB must
// repopulate on the new epoch.
func TestRealTimeAgentRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	m := flexran.NewMaster(flexran.DefaultMasterOptions())
	l, err := flexran.ListenControl("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()

	stop := make(chan struct{})
	masterErr := make(chan error, 1)
	go func() { masterErr <- flexran.ServeMasterListener(m, l, stop, flexran.RTConfig{}) }()

	a := startAgentENB(t, 5, 3)
	agentStop := make(chan struct{})
	agentErr := make(chan error, 1)
	go func() { agentErr <- flexran.RunAgentLoop(a, addr, agentStop) }()
	waitFor(t, 5*time.Second, "first attach", func() bool {
		return m.RIB().Connected(5) && m.RIB().UECount(5) == 3
	})
	epoch1 := a.Epoch()

	// Kill the agent process (loop + connection), as a crash would.
	close(agentStop)
	if err := <-agentErr; err != nil {
		t.Fatalf("agent loop: %v", err)
	}
	waitFor(t, 5*time.Second, "disconnect detection", func() bool {
		return !m.RIB().Connected(5)
	})

	// Restart and reconnect: a new epoch, a fresh hello, and a resync must
	// bring the RIB back without any manual cleanup.
	a.Restart()
	agentStop = make(chan struct{})
	go func() { agentErr <- flexran.RunAgentLoop(a, addr, agentStop) }()
	waitFor(t, 5*time.Second, "reattach after restart", func() bool {
		return m.RIB().Connected(5) && m.RIB().UECount(5) == 3
	})
	if a.Epoch() <= epoch1 {
		t.Errorf("epoch did not advance across restart: %d -> %d", epoch1, a.Epoch())
	}

	close(agentStop)
	close(stop)
	if err := <-agentErr; err != nil {
		t.Errorf("agent loop: %v", err)
	}
	if err := <-masterErr; err != nil {
		t.Errorf("master loop: %v", err)
	}
}

// TestRealTimeShutdownLeaksNothing is the regression test for the server
// leaking one reader goroutine and socket per connected agent on shutdown:
// after stop, the goroutine count must return to its pre-deployment level.
func TestRealTimeShutdownLeaksNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	before := runtime.NumGoroutine()

	m := flexran.NewMaster(flexran.DefaultMasterOptions())
	l, err := flexran.ListenControl("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	stop := make(chan struct{})
	errc := make(chan error, 4)
	go func() { errc <- flexran.ServeMasterListener(m, l, stop, flexran.RTConfig{}) }()
	for i := 0; i < 3; i++ {
		a := startAgentENB(t, flexran.ENBID(20+i), 1)
		go func() { errc <- flexran.RunAgentLoop(a, addr, stop) }()
	}
	waitFor(t, 5*time.Second, "all agents attached", func() bool {
		for i := 0; i < 3; i++ {
			if !m.RIB().Connected(flexran.ENBID(20 + i)) {
				return false
			}
		}
		return true
	})

	close(stop)
	for i := 0; i < 4; i++ {
		if err := <-errc; err != nil {
			t.Errorf("loop error: %v", err)
		}
	}

	// Readers exit asynchronously once their connections are closed; give
	// them a moment, then require the count back near the baseline (other
	// tests' leftovers may still be winding down, hence the slack).
	waitFor(t, 5*time.Second, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

// TestRealTimeStopIsCleanExit is the regression test for the shutdown race
// in the wall-clock loops: stop makes the master close its connections,
// and an agent loop that saw the closed transport before it saw stop
// reported "control channel: EOF" for what was a clean shutdown (about one
// start/stop cycle in eight). Every cycle rebinds the same address, so it
// also pins that ServeMasterListener returns only after its listener is
// closed. Each cycle is event-driven: it stops the moment the master has
// applied the agent's Hello.
func TestRealTimeStopIsCleanExit(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	addr := "127.0.0.1:0"
	for cycle := 0; cycle < 100; cycle++ {
		m := flexran.NewMaster(flexran.DefaultMasterOptions())
		hello := m.Watch(flexran.WatchFilter{Kinds: flexran.WatchHello}, 1)
		l, err := flexran.ListenControl(addr)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		addr = l.Addr().String()
		stop := make(chan struct{})
		errc := make(chan error, 2)
		go func() { errc <- flexran.ServeMasterListener(m, l, stop, flexran.RTConfig{}) }()
		a := startAgentENB(t, 4, 1)
		go func() { errc <- flexran.RunAgentLoop(a, addr, stop) }()

		select {
		case <-hello.Events():
		case <-time.After(5 * time.Second):
			close(stop)
			t.Fatalf("cycle %d: agent never attached", cycle)
		}
		close(stop)
		for i := 0; i < 2; i++ {
			if err := <-errc; err != nil {
				t.Fatalf("cycle %d: loop error: %v", cycle, err)
			}
		}
	}
}
