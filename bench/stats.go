package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method: q=0 is the
// minimum, q=1 the maximum). It returns NaN for an empty sample and does not
// modify xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns (Q1, median, Q3) the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method, positions
// i·(n+1)/4), because that is the spread rule the benchmark contract checks
// end-to-end metrics against. Fewer than two samples give the single value
// three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Like Python, the fraction is taken after clamping the index, so
		// two samples extrapolate past the data.
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run steadiness figure every bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 || math.IsNaN(q2) {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / q2)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b with 0 for an empty base, so "nothing happened" reads as 0
// instead of NaN in the JSON result.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
