package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice
// by linear interpolation between closest ranks; NaN when empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of v (any order); NaN when empty.
func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(v, n=4) (the "exclusive" method) gives
// them — the method the acceptance protocol uses — so -compare and the
// driver agree on a spread. With fewer than two values all three are
// the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Exclusive method: position i*(n+1)/4 on the 1-based ranks,
		// clamped to the sample.
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// tail reports the highest percentile that still has at least ten
// samples beyond it: a p99 needs a thousand samples before its value
// stops being one outlier's, so short windows report a lower, steadier
// percentile and say which. With fewer than eleven samples the tail is
// the maximum and the percentile is reported as 0.
func tail(v []float64) (value, percentile float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n <= 10 {
		return s[n-1], 0
	}
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
