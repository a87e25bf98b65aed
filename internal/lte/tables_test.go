package lte

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMCSForCQIMonotonic(t *testing.T) {
	for c := CQI(1); c <= MaxCQI; c++ {
		if MCSForCQI(c) <= MCSForCQI(c-1) {
			t.Errorf("MCS mapping not increasing at CQI %d", c)
		}
	}
	if MCSForCQI(MaxCQI) != MaxMCS {
		t.Errorf("CQI 15 should map to MCS %d", MaxMCS)
	}
}

func TestCQIForMCSInverse(t *testing.T) {
	// CQIForMCS(MCSForCQI(c)) == c for every CQI: the mapping is strictly
	// increasing so the inverse must round-trip exactly.
	for c := CQI(0); c <= MaxCQI; c++ {
		if got := CQIForMCS(MCSForCQI(c)); got != c {
			t.Errorf("CQIForMCS(MCSForCQI(%d)) = %d", c, got)
		}
	}
}

// cqiForMCSReference is CQIForMCS as it was before the table: a scan of
// cqiToMCS per call.
func cqiForMCSReference(m MCS) CQI {
	for c := CQI(0); c <= MaxCQI; c++ {
		if cqiToMCS[c] >= m {
			return c
		}
	}
	return MaxCQI
}

// The table must answer what the scan answers for every MCS a remote
// scheduler can put on the wire, including the 227 values above MaxMCS.
func TestCQIForMCSMatchesScan(t *testing.T) {
	for m := 0; m <= 255; m++ {
		if got, want := CQIForMCS(MCS(m)), cqiForMCSReference(MCS(m)); got != want {
			t.Errorf("CQIForMCS(%d) = %d, the scan says %d", m, got, want)
		}
	}
}

func TestTBSBitsByteAligned(t *testing.T) {
	f := func(c uint8, n uint8) bool {
		bits := TBSBits(Downlink, CQI(c%16), int(n%120))
		return bits%8 == 0 && bits >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTBSBitsEdges(t *testing.T) {
	if TBSBits(Downlink, 0, 50) != 0 {
		t.Error("CQI 0 must carry no data")
	}
	if TBSBits(Downlink, 10, 0) != 0 {
		t.Error("zero PRBs must carry no data")
	}
	if TBSBits(Downlink, 10, -3) != 0 {
		t.Error("negative PRBs must carry no data")
	}
}

func TestTBSMonotonicInCQIAndPRB(t *testing.T) {
	for c := CQI(2); c <= MaxCQI; c++ {
		if TBSBits(Downlink, c, 50) <= TBSBits(Downlink, c-1, 50) {
			t.Errorf("TBS not increasing with CQI at %d", c)
		}
	}
	for n := 2; n <= 100; n++ {
		if TBSBits(Downlink, 10, n) < TBSBits(Downlink, 10, n-1) {
			t.Errorf("TBS decreasing with PRBs at %d", n)
		}
	}
}

func TestPeakRateCalibration(t *testing.T) {
	// The calibration targets from the paper (the note in tables.go):
	// ~27.5 Mb/s DL MAC peak at CQI 15 / 10 MHz (25 Mb/s at app level),
	// ~16.6 Mb/s at CQI 10 (15 Mb/s TCP), ~8.8 Mb/s UL peak.
	checks := []struct {
		dir  Direction
		cqi  CQI
		want float64 // Mb/s
		tol  float64
	}{
		{Downlink, 15, 27.5, 1.0},
		{Downlink, 10, 16.6, 0.8},
		{Downlink, 4, 3.65, 0.2},
		{Downlink, 3, 2.45, 0.2},
		{Downlink, 2, 1.80, 0.15},
		{Uplink, 15, 8.8, 0.5},
	}
	for _, c := range checks {
		got := PeakRateMbps(c.dir, c.cqi, BW10MHz)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v peak rate at CQI %d = %.2f Mb/s, want %.2f +- %.2f",
				c.dir, c.cqi, got, c.want, c.tol)
		}
	}
}

func TestBLERProperties(t *testing.T) {
	// At or below the channel CQI: standard 10% initial target.
	if got := BLER(7, 7, 0); got != 0.10 {
		t.Errorf("BLER(equal) = %v, want 0.10", got)
	}
	if got := BLER(5, 9, 0); got != 0.10 {
		t.Errorf("BLER(below) = %v, want 0.10", got)
	}
	// Overestimation hurts monotonically.
	prev := 0.0
	for d := 0; d <= 4; d++ {
		p := BLER(CQI(10+d), 10, 0)
		if p < prev {
			t.Errorf("BLER not monotone in overestimation at diff %d", d)
		}
		prev = p
	}
	// A retransmission recovers one step of margin.
	if BLER(11, 10, 1) >= BLER(11, 10, 0) {
		t.Error("retransmission should reduce BLER")
	}
	if got := BLER(10, 10, 1); got != 0.01 {
		t.Errorf("retx at safe MCS = %v, want 0.01", got)
	}
	// Probabilities stay in [0, 1].
	f := func(a, b uint8, r uint8) bool {
		p := BLER(CQI(a%16), CQI(b%16), int(r%5))
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
