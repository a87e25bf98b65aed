package lte

import (
	"testing"
	"testing/quick"
)

func TestSubframeMath(t *testing.T) {
	cases := []struct {
		sf    Subframe
		sfn   uint16
		index uint8
	}{
		{0, 0, 0},
		{9, 0, 9},
		{10, 1, 0},
		{10239, 1023, 9},
		{10240, 0, 0}, // SFN wraps at 1024 frames
		{10247, 0, 7},
	}
	for _, c := range cases {
		if got := c.sf.SFN(); got != c.sfn {
			t.Errorf("Subframe(%d).SFN() = %d, want %d", c.sf, got, c.sfn)
		}
		if got := c.sf.Index(); got != c.index {
			t.Errorf("Subframe(%d).Index() = %d, want %d", c.sf, got, c.index)
		}
	}
}

func TestSubframeSeconds(t *testing.T) {
	if got := Subframe(1500).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
}

func TestBandwidthPRBs(t *testing.T) {
	cases := map[Bandwidth]int{
		BW1Dot4MHz: 6, BW3MHz: 15, BW5MHz: 25,
		BW10MHz: 50, BW15MHz: 75, BW20MHz: 100,
		Bandwidth(42): 0,
	}
	for bw, want := range cases {
		if got := bw.PRBs(); got != want {
			t.Errorf("%v.PRBs() = %d, want %d", bw, got, want)
		}
	}
}

func TestBandwidthString(t *testing.T) {
	if got := BW10MHz.String(); got != "10.0MHz" {
		t.Errorf("String() = %q", got)
	}
	if got := BW1Dot4MHz.String(); got != "1.4MHz" {
		t.Errorf("String() = %q", got)
	}
}

func TestCQIValidity(t *testing.T) {
	if !CQI(0).Valid() || !CQI(15).Valid() {
		t.Error("CQI 0 and 15 must be valid")
	}
	if CQI(16).Valid() {
		t.Error("CQI 16 must be invalid")
	}
	if got := CQI(200).Clamp(); got != MaxCQI {
		t.Errorf("Clamp() = %d, want %d", got, MaxCQI)
	}
	if got := CQI(7).Clamp(); got != 7 {
		t.Errorf("Clamp() = %d, want 7", got)
	}
}

func TestDirectionAndDuplexStrings(t *testing.T) {
	if Downlink.String() != "DL" || Uplink.String() != "UL" {
		t.Error("Direction strings wrong")
	}
	if FDD.String() != "FDD" || TDD.String() != "TDD" {
		t.Error("Duplex strings wrong")
	}
}

func TestSubframeSFNWrapProperty(t *testing.T) {
	// SFN must always be < 1024 and Index < 10, for any subframe.
	f := func(v uint64) bool {
		s := Subframe(v)
		return s.SFN() < 1024 && s.Index() < 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
