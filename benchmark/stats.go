package main

import "sort"

// summary is a sample's median and quartiles.
type summary struct {
	n              int
	median, q1, q3 float64
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// summarize returns the median and the quartiles of xs, the quartiles as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so the figures match a re-computation in Python.
func summarize(xs []float64) summary {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return summary{}
	}
	s := summary{n: n}
	if n%2 == 1 {
		s.median = d[n/2]
	} else {
		s.median = (d[n/2-1] + d[n/2]) / 2
	}
	if n == 1 {
		s.q1, s.q3 = d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	s.q1, s.q3 = q(1), q(3)
	return s
}
