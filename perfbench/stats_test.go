package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.99, 50}, {1, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("unsorted median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// +Inf marks a failed operation: it is a missed latency, so it lands
	// in the tail.
	if got := percentile([]float64{1, 2, math.Inf(1)}, 1); !math.IsInf(got, 1) {
		t.Errorf("failed sample not in the tail: %v", got)
	}
}

func TestTailSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5},     // no samples: median
		{8, 0.5},     // too few for any tail
		{20, 0.5},    // exactly ten beyond the median
		{100, 0.9},   // ten beyond p90
		{500, 0.98},  // ten beyond p98
		{1000, 0.99}, // p99 resolvable
		{5000, 0.99}, // never above the asked-for percentile
	} {
		if got := tailRank(0.99, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailRank(0.99, %d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, used := tail(xs, 0.99)
	if v != 990 || used != 0.99 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 990 at p0.99", v, used)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Errorf("%d samples beyond the reported tail, want >= %d", beyond,
			minBeyond)
	}
}

func TestGroupedMedian(t *testing.T) {
	// Whole-unit samples: three lie below the median unit [4.5, 5.5) and
	// four inside it, so the median is 4.5 + (8/2 − 3)/4 = 4.75.
	xs := []float64{3, 4, 4, 5, 5, 5, 5, 6}
	if got := groupedMedian(xs, 1); math.Abs(got-4.75) > 1e-12 {
		t.Errorf("groupedMedian = %v, want 4.75", got)
	}
	// A shift of a fraction of a unit moves it; the plain median cannot.
	shifted := []float64{3, 4, 5, 5, 5, 5, 5, 6}
	if groupedMedian(shifted, 1) <= groupedMedian(xs, 1) {
		t.Error("grouped median did not rise when mass moved up")
	}
	if median(shifted) != median(xs) {
		t.Error("test premise: plain medians should be equal")
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "network.solve_s", "job_p99_ms",
		"sim.events-per-task", "9lives", "A.b_c-d"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := ""
	for len(long) < 65 {
		long += "a"
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space",
		"slash/name", "pct%", "ünïcode", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "MB", "ratio"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "two words", "seconds_per_operation"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	m := metrics{}
	m.set("bad name", "s", 1)
	if m.check() == nil {
		t.Error("check accepted an invalid name")
	}
	m = metrics{}
	m.set("ok", "s", math.NaN())
	if m.check() == nil {
		t.Error("check accepted a NaN value")
	}
}
