package flexran_test

import (
	"runtime"
	"testing"
	"time"

	"flexran"
)

// agentSpec declares an agent-enabled eNodeB with nUEs UEs at CQI 12.
func agentSpec(id flexran.ENBID, nUEs int) flexran.ENBSpec {
	spec := flexran.ENBSpec{ID: id, Seed: int64(id), Agent: true}
	for i := 0; i < nUEs; i++ {
		spec.UEs = append(spec.UEs, flexran.UESpec{
			IMSI: uint64(id)*1000 + uint64(i), Channel: flexran.FixedChannel(12),
		})
	}
	return spec
}

// newNode builds a spec's standalone node.
func newNode(t *testing.T, spec flexran.ENBSpec) *flexran.Node {
	t.Helper()
	n, err := flexran.NewNode(spec)
	if err != nil {
		t.Fatal(err)
	}
	return n
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
// agents' own deadline accounting. Every UE carries a CBR downlink, which
// the agent loops inject: each UE must be served, and the master's RIB
// must show its rate.
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
	ids := []flexran.ENBID{7, 8}
	nodes := make([]*flexran.Node, len(ids))
	for i, id := range ids {
		spec := agentSpec(id, 2)
		for j := range spec.UEs {
			spec.UEs[j].DL = flexran.NewCBR(500)
		}
		n := newNode(t, spec)
		nodes[i] = n
		go func() {
			errc <- flexran.RunAgentLoopRT(n, addr, stop, flexran.RTConfig{Stats: agentLS})
		}()
	}

	waitFor(t, 5*time.Second, "RIB population", func() bool {
		return m.RIB().Connected(7) && m.RIB().Connected(8) &&
			m.RIB().UECount(7) == 2 && m.RIB().UECount(8) == 2
	})
	waitFor(t, 5*time.Second, "a DL rate for every UE in the RIB", func() bool {
		for i, n := range nodes {
			for _, rnti := range n.RNTIs {
				if st, ok := m.RIB().UEStats(ids[i], rnti); !ok || st.DLRateKbps == 0 {
					return false
				}
			}
		}
		return true
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
	// The loops have returned, so the data planes are safe to read.
	for _, n := range nodes {
		for _, rnti := range n.RNTIs {
			if r, _ := n.ENB.UEReport(rnti); r.DLDelivered == 0 {
				t.Errorf("eNB %d UE %d: no downlink delivered", n.ENB.ID(), rnti)
			}
		}
	}
}

// TestAgentLoopNeedsAnAgent: a node built without an agent is refused
// before anything is dialled.
func TestAgentLoopNeedsAnAgent(t *testing.T) {
	n := newNode(t, flexran.ENBSpec{ID: 3})
	if err := flexran.RunAgentLoop(n, "127.0.0.1:1", nil); err == nil {
		t.Fatal("agent loop accepted a node without an agent")
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

	n := newNode(t, agentSpec(5, 3))
	a := n.Agent
	agentStop := make(chan struct{})
	agentErr := make(chan error, 1)
	go func() { agentErr <- flexran.RunAgentLoop(n, addr, agentStop) }()
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
	go func() { agentErr <- flexran.RunAgentLoop(n, addr, agentStop) }()
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
		n := newNode(t, agentSpec(flexran.ENBID(20+i), 1))
		go func() { errc <- flexran.RunAgentLoop(n, addr, stop) }()
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
		n := newNode(t, agentSpec(4, 1))
		go func() { errc <- flexran.RunAgentLoop(n, addr, stop) }()

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
