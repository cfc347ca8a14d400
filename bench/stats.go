package main

import (
	"math"
	"sort"
)

// minBeyond is the guide's rule for a reported tail: a percentile is
// only quoted when at least this many samples lie beyond it.
const minBeyond = 10

// tailLevels are the percentiles considered for a tail, highest first.
var tailLevels = []float64{99.9, 99, 90, 75}

// tailPercentile returns the highest percentile in tailLevels that has
// at least minBeyond of n samples beyond it, and false when even the
// lowest level lacks them (the median is then the only supported
// statistic).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0, 100]). xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median matches Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, which is how run-to-run spread is judged.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
