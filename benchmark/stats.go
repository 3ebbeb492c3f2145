package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a timing percentile is reported only when
// at least this many samples lie beyond it, so one slow request cannot be the
// whole tail.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of sorted by the
// nearest-rank rule, and whether the sample supports it: ok is false when
// fewer than minBeyond samples lie strictly beyond the returned rank.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the middle of xs (mean of the two middles for an even count);
// it does not modify xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedMedian(s)
}

// sortedMedian is median for values already in ascending order.
func sortedMedian(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the benchmark driver uses for spreads.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the run-to-run spread of one metric as a share of its
// median: the interquartile distance once four values exist, the full range
// below that (two sets have no quartiles worth the name).
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	if len(xs) < 4 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// lat is a latency sample set in nanoseconds.
type lat []int64

func (l *lat) add(d time.Duration) { *l = append(*l, int64(d)) }

// sorted returns the samples ascending, scaled by 1/div (1e3 = µs, 1e6 = ms).
func (l lat) sorted(div float64) []float64 {
	out := make([]float64, len(l))
	for i, v := range l {
		out[i] = float64(v) / div
	}
	sort.Float64s(out)
	return out
}

// medianOf times f n times and returns the median duration in nanoseconds.
// Layer-walk measurements use it so one GC pause or preemption cannot move a
// per-layer number.
func medianOf(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0))
	}
	return median(xs)
}
