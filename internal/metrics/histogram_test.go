package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistIndexRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and bucket
	// lower bounds must be strictly increasing.
	prev := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo := histLower(i)
		if got := histIndex(lo); got != i {
			t.Fatalf("histIndex(histLower(%d)) = %d", i, got)
		}
		if i > 0 && lo <= prev {
			t.Fatalf("bucket %d lower bound %d not increasing (prev %d)", i, lo, prev)
		}
		prev = lo
	}
	// Spot-check arbitrary values land in a bucket whose range covers them.
	for _, v := range []uint64{0, 1, 15, 16, 17, 1000, 123456789, 1 << 40} {
		i := histIndex(v)
		lo := histLower(i)
		hi := histLower(i + 1)
		if v < lo || v >= hi {
			t.Fatalf("value %d in bucket %d [%d, %d)", v, i, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 µs: quantiles should land within one bucket width
	// (~6%) of the exact answer.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	check := func(q float64, want time.Duration) {
		got := h.Quantile(q)
		if got < want || float64(got) > float64(want)*1.07 {
			t.Errorf("q%.3f = %v, want within [%v, %v*1.07]", q, got, want, want)
		}
	}
	check(0.50, 500*time.Microsecond)
	check(0.99, 990*time.Microsecond)
	check(0.999, 999*time.Microsecond)
	if h.Max() != time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	if m := h.Mean(); m < 495*time.Microsecond || m > 505*time.Microsecond {
		t.Errorf("mean = %v", m)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	h.Observe(-time.Second) // clamps to zero, never panics
	if h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative observation mishandled: n=%d p50=%v", h.Count(), h.Quantile(0.5))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const writers, per = 8, 5000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(r.Intn(1_000_000)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != writers*per {
		t.Fatalf("count = %d, want %d", h.Count(), writers*per)
	}
	if h.Quantile(0.999) > h.Max() {
		t.Fatal("quantile above max")
	}
}

func TestLoopStatsProfile(t *testing.T) {
	var ls LoopStats
	ls.Account(10, 2)
	ls.Account(1, 0)
	if ls.Ticks() != 11 || ls.Misses() != 2 {
		t.Fatalf("ticks=%d misses=%d", ls.Ticks(), ls.Misses())
	}
	if r := ls.MissRate(); r < 0.18 || r > 0.19 {
		t.Fatalf("miss rate %.4f", r)
	}
	ls.Step.Observe(20 * time.Microsecond)
	ls.Apps.Observe(40 * time.Microsecond)
	ls.RTT.Observe(300 * time.Microsecond)
	prof := ls.Profile()
	for _, want := range []string{"ticks=11", "misses=2", "step", "apps", "rtt"} {
		if !strings.Contains(prof, want) {
			t.Errorf("profile missing %q:\n%s", want, prof)
		}
	}
	if strings.Contains(prof, "ingest") {
		t.Errorf("profile shows empty leg:\n%s", prof)
	}
}
