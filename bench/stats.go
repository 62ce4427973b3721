package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: a p99 resting on two observations repeats to no
// digit at all.
const tailSamples = 10

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between order statistics of an
// ascending slice; q in [0,1].
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// supports reports whether n samples leave tailSamples beyond the p-th
// percentile.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= tailSamples
}

// tailFor returns the highest of the candidate percentiles that n
// samples support, falling back to the median.
func tailFor(n int, candidates ...float64) float64 {
	for _, c := range candidates {
		if supports(n, c) {
			return c
		}
	}
	return 50
}

// supportedTail returns the highest of the candidate percentiles the
// sample supports, and its value.
func supportedTail(xs []float64, candidates ...float64) (p, v float64) {
	p = tailFor(len(xs), candidates...)
	return p, quantile(sorted(xs), p/100)
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the exclusive-method quartiles
// Python's statistics.quantiles(values, n=4) gives — the A/A yardstick
// the benchmark's bounds are judged against.
func quartileSpread(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return asc[j-1] + (asc[j]-asc[j-1])*(pos-float64(j))
	}
	med := quantile(asc, 0.5)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}
