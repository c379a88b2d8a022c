package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the rule the acceptance driver applies to ten runs of this benchmark.
// Fewer than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness measure every end-to-end bound is checked against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// minTail is how many samples must lie beyond a reported percentile for it
// to repeat from run to run (choosing-metrics guide, section 1).
const minTail = 10

// percentile is the nearest-rank q-th percentile (0 < q < 1). enough reports
// whether at least minTail samples lie beyond the returned rank; a tail
// thinner than that is one or two slow requests, not a property of the
// system, and callers must say so instead of presenting it as a percentile.
func percentile(xs []float64, q float64) (v float64, enough bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minTail
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeMedian calls fn once to warm caches and pools, then reps more times,
// and returns the median duration of the timed calls.
func timeMedian(reps int, fn func()) time.Duration {
	fn()
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// perCall times n back-to-back calls of a nanosecond-scale fn and returns
// the mean cost of one in nanoseconds — a single call is below the clock's
// resolution.
func perCall(n int, fn func()) float64 {
	fn()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// timeOnce times a single call.
func timeOnce(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
