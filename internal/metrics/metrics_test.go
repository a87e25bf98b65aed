package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Record("stats", 100)
	m.Record("stats", 50)
	m.Record("sync", 10)
	if got := m.Bytes("stats"); got != 150 {
		t.Errorf("Bytes(stats) = %d, want 150", got)
	}
	if got := m.Messages("stats"); got != 2 {
		t.Errorf("Messages(stats) = %d, want 2", got)
	}
	if got := m.TotalBytes(); got != 160 {
		t.Errorf("TotalBytes() = %d, want 160", got)
	}
	cats := m.Categories()
	if len(cats) != 2 || cats[0] != "stats" || cats[1] != "sync" {
		t.Errorf("Categories() = %v", cats)
	}
	snap := m.Snapshot()
	if snap["sync"] != 10 {
		t.Errorf("Snapshot() = %v", snap)
	}
	m.Reset()
	if m.TotalBytes() != 0 {
		t.Error("Reset() did not clear")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				m.Record("x", 2)
			}
		}()
	}
	wg.Wait()
	if got := m.Bytes("x"); got != 4000 {
		t.Errorf("Bytes = %d, want 4000", got)
	}
}

func TestMbpsOver(t *testing.T) {
	// 1_250_000 bytes over 1 second = 10 Mb/s.
	if got := MbpsOver(1250000, 1000); math.Abs(got-10) > 1e-9 {
		t.Errorf("MbpsOver = %v, want 10", got)
	}
	if got := MbpsOver(123, 0); got != 0 {
		t.Errorf("MbpsOver with zero duration = %v, want 0", got)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Max() != 0 {
		t.Error("empty series should report zeros")
	}
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(3, 30)
	if s.Len() != 3 {
		t.Errorf("Len() = %d", s.Len())
	}
	if got := s.Max(); got != 30 {
		t.Errorf("Max() = %v, want 30", got)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Observe(10); got != 10 {
		t.Errorf("first Observe = %v, want 10", got)
	}
	if got := e.Observe(20); got != 15 {
		t.Errorf("second Observe = %v, want 15", got)
	}
	if got := e.Value(); got != 15 {
		t.Errorf("Value() = %v, want 15", got)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Value()-42) > 1e-6 {
		t.Errorf("EWMA should converge to constant input, got %v", e.Value())
	}
}

func TestCDFQuantiles(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF should return NaN")
	}
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var c CDF
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				c.Add(v)
			}
		}
		if c.Len() == 0 {
			return true
		}
		// Quantile must be monotone non-decreasing in q.
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
