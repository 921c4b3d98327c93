package main

import (
	"math"
	"sort"

	"mpsnap/internal/obs"
)

// newHist returns a concurrent histogram for per-layer numbers
// (nanoseconds, or counts), where there are too many samples to keep. Its
// bucket bounds grow by 3% from 1 to 1e11, so a quantile is within 3% of
// the sample's. End-to-end percentiles are exact (see exactQuantile).
func newHist() *obs.Histogram { return obs.NewHistogram(histBounds) }

var histBounds = func() []float64 {
	var b []float64
	for v := 1.0; v < 1e11; v *= 1.03 {
		b = append(b, v)
	}
	return b
}()

// exactQuantile returns the nearest-rank q-quantile of xs, sorting xs.
func exactQuantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(a, b int) bool { return xs[a] < xs[b] }) {
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	}
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return float64(xs[rank-1])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
