package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		report bool
	}{
		{999, 990, false}, // 9 samples above the 990th value
		{1000, 990, true}, // exactly 10 above
		{2000, 1980, true},
		{50, 50, false},
	} {
		got, ok := tailPercentile(seq(tc.n), 99, 10)
		if got != tc.want || ok != tc.report {
			t.Errorf("n=%d: p99 = %v, reportable %v; want %v, %v", tc.n, got, ok, tc.want, tc.report)
		}
	}
	// Ties at the percentile do not count as beyond it.
	xs := seq(990)
	for i := 0; i < 10; i++ {
		xs = append(xs, 990)
	}
	if _, ok := tailPercentile(xs, 99, 10); ok {
		t.Errorf("ties at the percentile counted as samples beyond it")
	}
	if _, ok := tailPercentile(nil, 99, 10); ok {
		t.Errorf("empty input reported a percentile")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean(2,8,4) = %v, want 4", got)
	}
	if got := geomean([]float64{5, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean empty = %v, want 0", got)
	}
}
