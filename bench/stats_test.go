package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{39, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-got)/100 < minBeyond-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%v) = %v, want %v", p, got, want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(n=4), which
// is how run-to-run spread is judged against the bounds.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25}, // Python extrapolates below two points
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Better: "lower", Bound: 0.1}
	a := []float64{100, 101, 99, 100, 102, 98}
	if v := verdict(a, []float64{105, 104, 106}, lower); v != "ok" {
		t.Errorf("5%% slower within a 10%% bound: %s", v)
	}
	if v := verdict(a, []float64{115, 116, 114}, lower); v != "worse" {
		t.Errorf("15%% slower beyond a 10%% bound: %s", v)
	}
	noisy := []float64{50, 150, 80, 120, 60, 140}
	if v := verdict(noisy, []float64{120, 130, 125}, lower); v != "unresolved" {
		t.Errorf("baseline spread wider than the bound: %s", v)
	}
	if v := verdict(noisy, []float64{40, 45}, lower); v != "ok" {
		t.Errorf("every candidate run better than every baseline run: %s", v)
	}
	higher := bound{Better: "higher", Bound: 0.1}
	if v := verdict(a, []float64{85, 86, 84}, higher); v != "worse" {
		t.Errorf("15%% lower throughput: %s", v)
	}
}
