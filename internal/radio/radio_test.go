package radio

import (
	"math"
	"testing"
	"testing/quick"

	"flexran/internal/lte"
)

func TestFixed(t *testing.T) {
	m := Fixed(9)
	for sf := lte.Subframe(0); sf < 10; sf++ {
		if m.CQI(sf) != 9 {
			t.Fatalf("Fixed changed at %v", sf)
		}
	}
	if Fixed(99).CQI(0) != lte.MaxCQI {
		t.Error("Fixed should clamp")
	}
}

func TestScheduleLookup(t *testing.T) {
	s := Schedule{{0, 10}, {100, 4}, {200, 12}}
	cases := map[lte.Subframe]lte.CQI{
		0: 10, 50: 10, 99: 10, 100: 4, 150: 4, 199: 4, 200: 12, 5000: 12,
	}
	for sf, want := range cases {
		if got := s.CQI(sf); got != want {
			t.Errorf("CQI(%d) = %d, want %d", sf, got, want)
		}
	}
	if (Schedule{}).CQI(5) != 0 {
		t.Error("empty schedule should report CQI 0")
	}
}

func TestSquareWave(t *testing.T) {
	s := NewSquareWave(3, 2, 1000, 4000)
	expect := map[lte.Subframe]lte.CQI{
		0: 3, 999: 3, 1000: 2, 1999: 2, 2000: 3, 3000: 2, 3999: 2,
	}
	for sf, want := range expect {
		if got := s.CQI(sf); got != want {
			t.Errorf("square wave CQI(%d) = %d, want %d", sf, got, want)
		}
	}
}

func TestGaussMarkovStatistics(t *testing.T) {
	g := NewGaussMarkov(10, 0.99, 1.5, 1)
	var sum float64
	n := 20000
	counts := map[lte.CQI]int{}
	for sf := 0; sf < n; sf++ {
		c := g.CQI(lte.Subframe(sf))
		if c < 1 || c > lte.MaxCQI {
			t.Fatalf("CQI out of range: %d", c)
		}
		counts[c]++
		sum += float64(c)
	}
	mean := sum / float64(n)
	if math.Abs(mean-10) > 1.0 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if len(counts) < 3 {
		t.Errorf("process barely moves: %v", counts)
	}
}

func TestGaussMarkovDeterministic(t *testing.T) {
	a := NewGaussMarkov(8, 0.95, 2, 7)
	b := NewGaussMarkov(8, 0.95, 2, 7)
	for sf := lte.Subframe(0); sf < 500; sf++ {
		if a.CQI(sf) != b.CQI(sf) {
			t.Fatalf("diverged at %v", sf)
		}
	}
}

func TestGaussMarkovSkippedSubframes(t *testing.T) {
	// Querying sparsely must advance the process identically to querying
	// densely, and a subframe before the latest one queried reports the
	// latest one's CQI without moving the process.
	a := NewGaussMarkov(8, 0.9, 2, 3)
	b := NewGaussMarkov(8, 0.9, 2, 3)
	dense := make([]lte.CQI, 301)
	for sf := range dense {
		dense[sf] = a.CQI(lte.Subframe(sf))
	}
	for _, q := range []struct{ sf, want lte.Subframe }{
		{100, 100}, {40, 100}, {100, 100}, {101, 101}, {0, 101}, {300, 300},
	} {
		if got := b.CQI(q.sf); got != dense[q.want] {
			t.Errorf("CQI(%d) = %d, want subframe %d's %d", q.sf, got, q.want, dense[q.want])
		}
	}
}

func TestPathLoss(t *testing.T) {
	// Known value: 1 km -> 128.1 dB.
	if got := PathLossDB(1000); math.Abs(got-128.1) > 1e-9 {
		t.Errorf("PathLossDB(1km) = %v", got)
	}
	// Monotone in distance.
	if PathLossDB(100) >= PathLossDB(200) {
		t.Error("path loss must grow with distance")
	}
	// Floor below 1 m.
	if PathLossDB(0.1) != PathLossDB(1) {
		t.Error("path loss should floor at 1 m")
	}
}

func TestSINRInterferenceSwitch(t *testing.T) {
	serving := Transmitter{Pos: Point{0, 0}, PowerDBm: 30} // small cell
	macro := Transmitter{Pos: Point{400, 0}, PowerDBm: 46} // macro cell
	ue := Point{40, 0}                                     // near small cell

	on := SINRdB(ue, serving, []Transmitter{macro}, func(int) bool { return true })
	off := SINRdB(ue, serving, []Transmitter{macro}, func(int) bool { return false })
	if on >= off {
		t.Errorf("interference must reduce SINR: on=%v off=%v", on, off)
	}
	cqiOn, cqiOff := CQIFromSINRdB(on), CQIFromSINRdB(off)
	if cqiOn >= cqiOff {
		t.Errorf("CQI must drop under interference: %d vs %d", cqiOn, cqiOff)
	}
	// nil active means all interferers on.
	if got := SINRdB(ue, serving, []Transmitter{macro}, nil); math.Abs(got-on) > 1e-12 {
		t.Error("nil active should mean all-on")
	}
}

func TestCQIFromSINRMonotonic(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return CQIFromSINRdB(lo) <= CQIFromSINRdB(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if CQIFromSINRdB(-30) != 0 {
		t.Error("very low SINR should be out of range (CQI 0)")
	}
	if CQIFromSINRdB(40) != lte.MaxCQI {
		t.Error("very high SINR should be CQI 15")
	}
}

func TestInterferenceSwitched(t *testing.T) {
	macroActive := true
	ch := &InterferenceSwitched{
		Clear: 12, Hit: 4,
		Interfered: func(lte.Subframe) bool { return macroActive },
	}
	if got := ch.CQI(0); got != 4 {
		t.Errorf("interfered CQI = %d, want 4", got)
	}
	macroActive = false
	if got := ch.CQI(1); got != 12 {
		t.Errorf("clear CQI = %d, want 12", got)
	}
	chNil := &InterferenceSwitched{Clear: 11, Hit: 3}
	if got := chNil.CQI(0); got != 11 {
		t.Errorf("nil Interfered should be clear, got %d", got)
	}
}
