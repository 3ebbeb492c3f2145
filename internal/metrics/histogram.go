package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram layout: HDR-style log-bucketed counts over nanosecond values.
// Values below subCount get exact unit buckets; above that, each power-of-two
// octave splits into subCount sub-buckets, bounding the relative bucket width
// by 1/subCount (~3.1% at subBits=5). Recording is a single atomic increment,
// so any number of client goroutines share one Histogram without locks.
const (
	subBits  = 5
	subCount = 1 << subBits
	// numBuckets covers every shift a 64-bit value can need.
	numBuckets = subCount + (64-subBits)*subCount
)

// Histogram is a lock-free log-bucketed latency histogram. The zero value is
// ready to use. Record and the read-side accessors may race benignly: reads
// see some linearization of concurrent increments, which is all a percentile
// report needs.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds; saturating in practice (584y of latency)
	max    atomic.Uint64
	min    atomic.Uint64 // stored as ^value so zero means "unset"
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // floor(log2 v), >= subBits
	shift := e - subBits
	sub := int(v>>uint(shift)) - subCount // in [0, subCount)
	return subCount + shift*subCount + sub
}

// bucketBounds returns the inclusive value range [lo, hi] of bucket idx.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < subCount {
		return uint64(idx), uint64(idx)
	}
	shift := uint((idx - subCount) / subCount)
	sub := uint64((idx - subCount) % subCount)
	lo = (subCount + sub) << shift
	return lo, lo + (1 << shift) - 1
}

// Record adds one duration. Non-positive durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if ^v <= cur || h.min.CompareAndSwap(cur, ^v) {
			break
		}
	}
}

// RecordSeconds adds one value given in seconds, rounded to the nanosecond.
// NaN is dropped; negative values count as zero.
func (h *Histogram) RecordSeconds(s float64) {
	if math.IsNaN(s) {
		return
	}
	h.Record(time.Duration(math.Round(math.Min(s*1e9, 1<<62))))
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded value in nanoseconds (0 when empty).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Min returns the smallest recorded value in nanoseconds (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count.Load() == 0 {
		return 0
	}
	return ^h.min.Load()
}

// Mean returns the mean recorded value in nanoseconds.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// snapshot copies the bucket counts once, so a concurrent recorder cannot
// make a reader's walk disagree with the total it was computed from.
func (h *Histogram) snapshot() (counts [numBuckets]uint64, total uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Quantile returns the q-quantile (q in [0,1]) in nanoseconds, approximated
// to the midpoint of the bucket holding the q-th value. The error is bounded
// by half the bucket width: at most ~1/subCount of the value itself.
func (h *Histogram) Quantile(q float64) uint64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	snap, total := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	seen := uint64(0)
	for i, c := range snap {
		seen += c
		if seen >= rank {
			lo, hi := bucketBounds(i)
			return (lo + hi) / 2
		}
	}
	lo, hi := bucketBounds(numBuckets - 1)
	return (lo + hi) / 2
}

// Prometheus exposition: one le edge per octave from 2^promMinExp ns (~1 µs)
// to 2^promMaxExp ns (~275 s). Octave edges are bucket edges, so every
// cumulative count is a plain sum of whole buckets — exact, not interpolated.
const (
	promMinExp = 10
	promMaxExp = 38
)

// WritePrometheus renders h in the Prometheus text format as a histogram in
// seconds. The bucket at le=2^k ns counts the observations below 2^k ns, to
// the nanosecond Record keeps; _count is the +Inf bucket of the same pass.
func (h *Histogram) WritePrometheus(b *strings.Builder, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	snap, total := h.snapshot()
	cum, next := uint64(0), 0
	for k := promMinExp; k <= promMaxExp; k++ {
		for edge := bucketIndex(1 << uint(k)); next < edge; next++ {
			cum += snap[next]
		}
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, float64(uint64(1)<<uint(k))/1e9, cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(b, "%s_sum %g\n", name, float64(h.sum.Load())/1e9)
	fmt.Fprintf(b, "%s_count %d\n", name, total)
}
