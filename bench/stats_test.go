package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; must not be modified
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.95, 38.5}, {-1, 10}, {2, 40},
	} {
		if got := percentile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must give NaN")
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
}

// The contract judges spread with Python's statistics.quantiles(xs, n=4),
// the exclusive method; these are its outputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // two samples extrapolate, as in Python
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, _, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Error("one sample must give itself")
	}
}

func TestSpreadAndRatio(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("constant sample: spread %v", got)
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}
