package flexran_test

import (
	"testing"

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
