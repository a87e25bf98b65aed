package flexran_test

import (
	"strings"
	"testing"
	"time"

	"flexran"
)

// TestPublicAPIQuickstart exercises the doc-comment example end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	opts := flexran.DefaultMasterOptions()
	s := flexran.MustNewSim(flexran.SimConfig{Master: &opts},
		flexran.ENBSpec{ID: 1, Agent: true, UEs: []flexran.UESpec{{
			IMSI: 1, Channel: flexran.FixedChannel(15),
			DL: flexran.NewFullBuffer(),
		}}})
	if !s.WaitAttached(1000) {
		t.Fatal("attach failed")
	}
	s.RunSeconds(1)
	r := s.Report(0, 0)
	mbps := float64(r.DLDelivered) * 8 / 1e6
	if mbps < 20 {
		t.Errorf("quickstart throughput = %.1f Mb/s", mbps)
	}
}

func TestCompileVSF(t *testing.T) {
	p, err := flexran.CompileVSF("queue > 0 ? inst_rate / max(avg_rate, 1) : -1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() == "" {
		t.Error("empty source")
	}
	if _, err := flexran.CompileVSF("not_a_var + 1"); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestSustainableBitrateAndTCP(t *testing.T) {
	tcp := flexran.MaxTCPThroughput(10)
	if tcp < 13 || tcp > 17 {
		t.Errorf("TCP at CQI 10 = %.2f", tcp)
	}
	r, ok := flexran.SustainableBitrate([]float64{2.9, 4.9, 7.3, 9.6, 14.6, 19.6}, tcp)
	if !ok || r != 7.3 {
		t.Errorf("sustainable = %v, %v", r, ok)
	}
}

// TestRealTimeDeployment runs a miniature wall-clock deployment: a master
// served over TCP and one agent-enabled eNodeB connected to it.
func TestRealTimeDeployment(t *testing.T) {
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
	errc := make(chan error, 2)
	go func() { flexran.ServeMaster(m, l, stop, flexran.RTConfig{}); errc <- nil }()

	n, err := flexran.NewNode(flexran.ENBSpec{ID: 4, Seed: 1, Agent: true, UEs: []flexran.UESpec{{
		IMSI: 1, Channel: flexran.FixedChannel(12),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	go func() { errc <- flexran.RunAgentLoop(n, addr, stop, flexran.RTConfig{}) }()

	// Wait for the RIB to see the agent and its UE.
	deadline := time.After(5 * time.Second)
	for {
		if m.RIB().Connected(4) && m.RIB().UECount(4) > 0 {
			break
		}
		select {
		case <-deadline:
			close(stop)
			t.Fatalf("RIB never populated: %s", flexran.MasterSummary(m))
		case <-time.After(20 * time.Millisecond):
		}
	}
	if !strings.Contains(flexran.MasterSummary(m), "agents=1") {
		t.Errorf("summary = %s", flexran.MasterSummary(m))
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Errorf("loop error: %v", err)
	}
}
