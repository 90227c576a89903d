package main

import (
	"math"
	"sort"
)

// summary describes one sample of timings. Tail is the highest percentile
// in tailPercentiles that has at least minBeyond samples above it; TailP
// is 0 (and Tail NaN) when no percentile is supported by the sample.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	TailP  float64
	Tail   float64
}

// minBeyond is the number of samples a percentile needs above it before it
// is reported; a p99 from 50 samples would be the maximum in disguise.
const minBeyond = 10

// tailPercentiles are tried from the highest down.
var tailPercentiles = []float64{99, 95, 90, 75}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample.
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

// quartiles returns the first and third quartiles with the same method as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spread a run reports is the spread any other tool computes from
// the same values. With fewer than two values both quartiles are that
// value (or NaN when there is none).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		ld := len(s)
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs and whether
// the sample supports it: at least minBeyond values must lie above its
// rank.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1], n-rank >= minBeyond
}

// summarize computes the summary of xs.
func summarize(xs []float64) summary {
	sm := summary{N: len(xs), Median: median(xs), Tail: math.NaN()}
	sm.Q1, sm.Q3 = quartiles(xs)
	for _, p := range tailPercentiles {
		if v, ok := percentile(xs, p); ok {
			sm.TailP, sm.Tail = p, v
			break
		}
	}
	return sm
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
