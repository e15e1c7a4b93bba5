package main

import (
	"math"
	"slices"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none. It sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the smallest sample with at least p percent of the
// samples at or below it (nearest rank). sorted must be ascending.
func percentile(sorted []int32, p float64) int32 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 99.9 % of 1000 at rank 999, not 1000.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailPercentiles are the candidates highestPercentile picks from.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile returns the highest tail percentile that still has at
// least ten of n samples beyond it — the one a sample of that size
// supports — or 0 when even the median has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
