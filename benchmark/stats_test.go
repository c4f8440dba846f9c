package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{2.5, 9, 4, 7.25, 1, 3, 8}, 4, 2.5, 8},
		{[]float64{4.2}, 4.2, 4.2, 4.2},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.n != len(c.xs) || !near(s.median, c.median) || !near(s.q1, c.q1) || !near(s.q3, c.q3) {
			t.Errorf("summarize(%v) = %+v, want median %v q1 %v q3 %v", c.xs, s, c.median, c.q1, c.q3)
		}
	}
	if got := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
