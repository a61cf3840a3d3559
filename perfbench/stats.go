package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the steadiness report and its bounds are stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), median(s), cut(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (r-float64(lo))*(s[hi]-s[lo])
}

// tailPercentile picks the highest of the usual reporting percentiles that
// still has at least ten samples beyond it among n samples; ok is false when
// even the 50th percentile lacks them.
func tailPercentile(n int) (p int, ok bool) {
	for _, q := range []int{99, 95, 90, 80, 75, 50} {
		if float64(n)*(1-float64(q)/100) >= 10 {
			return q, true
		}
	}
	return 0, false
}
