package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample by linear interpolation between closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (order-independent); 0 for no samples.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// segmentMedians cuts a run's window values, in the order they were
// measured, into five segments and returns the median of each: the raw
// values results.json keeps beside the run's one number.
func segmentMedians(xs []float64) []float64 {
	const segments = 5
	out := make([]float64, 0, segments)
	for s := 0; s < segments; s++ {
		if part := xs[len(xs)*s/segments : len(xs)*(s+1)/segments]; len(part) > 0 {
			out = append(out, median(part))
		}
	}
	return out
}

// mean returns the arithmetic mean of xs; 0 for no samples.
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

// ratio returns num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
