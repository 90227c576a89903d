package main

import (
	"math"
	"testing"
)

func TestMedianOddEven(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 20}, 15},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{7, 1, 3, 9, 5, 2, 8, 4, 6, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, supported", v, ok)
	}
	if _, ok := percentile(xs, 95); ok {
		t.Error("p95 of 100 samples has only 5 beyond it and must be unsupported")
	}
	if _, ok := percentile(xs[:9], 50); ok {
		t.Error("no percentile of 9 samples has 10 beyond it")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample supports nothing")
	}
}

func TestSummarizePicksHighestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
	}{{1000, 99}, {200, 95}, {100, 90}, {40, 75}, {39, 0}, {3, 0}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		sm := summarize(xs)
		if sm.N != c.n || sm.TailP != c.tailP {
			t.Errorf("n=%d: tail p%v, want p%v", c.n, sm.TailP, c.tailP)
		}
		if c.tailP == 0 && !math.IsNaN(sm.Tail) {
			t.Errorf("n=%d: unsupported tail should be NaN, got %v", c.n, sm.Tail)
		}
	}
}
