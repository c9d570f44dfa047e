package main

import "testing"

// TestPercentile pins the nearest-rank read the load harness reports.
func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.q*100, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("single-sample p50 = %v", got)
	}
}
