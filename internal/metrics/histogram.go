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
// ready to use. Record and the readers may race benignly: a scrape sees some
// linearization of concurrent increments, which is all a /metrics page needs.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds; saturating in practice (584y of latency)
	max    atomic.Uint64
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

// snapshot copies the bucket counts once, so a concurrent recorder cannot
// make a reader's walk disagree with the total it was computed from.
func (h *Histogram) snapshot() (counts [numBuckets]uint64, total uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
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
