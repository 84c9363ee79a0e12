package main

import (
	"math"
	"sort"
	"time"
)

// samples collects per-operation latencies of one operation kind.
type samples []time.Duration

// quantile returns the q-quantile (0 ≤ q ≤ 1) in milliseconds, with
// linear interpolation between closest ranks; NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	v := float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
	return v / float64(time.Millisecond)
}

// supports reports whether at least ten samples lie beyond the
// q-quantile, the minimum for reporting that percentile.
func (s samples) supports(q float64) bool {
	return float64(len(s))*(1-q) >= 10
}

// median of a float slice (used for repeated set-up timings).
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
