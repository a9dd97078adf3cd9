package main

import (
	"math"
	"sort"
	"time"
)

// quantiles returns the requested quantiles (each in [0, 1]) of xs by
// linear interpolation between the two closest ranks, the estimator
// Python's statistics.quantiles(method="inclusive") uses. An empty sample
// yields NaN for every quantile; xs is not modified.
func quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = sortedQuantile(s, q)
	}
	return out
}

func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantiles(xs, 0.5)[0] }

// latency summarises one timing sample: median, p90, p99 and the sample
// count, so a reader can judge how many samples lie beyond each
// percentile.
type latency struct {
	P50, P90, P99 float64
	N             int
}

func summarize(xs []float64) latency {
	q := quantiles(xs, 0.5, 0.9, 0.99)
	return latency{P50: q[0], P90: q[1], P99: q[2], N: len(xs)}
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio divides, returning 0 when the base is 0 (a layer the workload
// never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowLength is the span of one window of a measured phase. End-to-end
// figures are medians over a phase's windows: on a shared host the speed
// of single seconds varies by 15% or more, and a median over many windows
// moves far less than any one window.
const windowLength = time.Second

// windowsIn is how many windows a phase of duration d holds.
func windowsIn(d time.Duration) int { return max(1, int(d/windowLength)) }

// windowMedian splits n chronologically ordered samples into up to w
// contiguous windows of equal count and returns the median over windows
// of f(lo, hi), skipping windows where f is NaN.
func windowMedian(n, w int, f func(lo, hi int) float64) float64 {
	w = min(w, n)
	vals := make([]float64, 0, w)
	for k := 0; k < w; k++ {
		if v := f(k*n/w, (k+1)*n/w); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return median(vals)
}
