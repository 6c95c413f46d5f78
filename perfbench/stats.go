package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least q·n samples at
// or below it. xs need not be sorted; it is not modified. An empty
// sample has no percentile and yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the nearest-rank index of the q-quantile in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// tailLadder is the percentiles a tail metric may report, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples a reported percentile needs above it:
// fewer and the "tail" is a handful of individual requests.
const minBeyond = 10

// highestSupported returns the highest percentile of tailLadder that
// keeps at least minBeyond of n samples beyond it, and that count. It
// returns ok=false when even the median lacks support.
func highestSupported(n int) (q float64, count int, ok bool) {
	for _, q := range tailLadder {
		if c := beyond(n, q); c >= minBeyond {
			return q, c, true
		}
	}
	return 0, 0, false
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
