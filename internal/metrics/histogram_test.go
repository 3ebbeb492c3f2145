package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestBucketIndexBounds pins the bucket geometry: every value maps into a
// bucket whose [lo, hi] range contains it, indexes are monotone in the value,
// and the relative bucket width never exceeds 1/subCount.
func TestBucketIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prevIdx := -1
	for _, v := range []uint64{0, 1, 2, 31, 32, 33, 63, 64, 65, 1023, 1024, 1 << 20, 1 << 40, 1<<62 + 12345} {
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket %d range [%d, %d]", v, idx, lo, hi)
		}
		if idx < prevIdx {
			t.Fatalf("bucket index not monotone at value %d", v)
		}
		prevIdx = idx
		if lo >= subCount {
			if width := hi - lo + 1; float64(width)/float64(lo) > 1.0/subCount+1e-12 {
				t.Fatalf("bucket %d width %d exceeds %d/subCount relative bound (lo=%d)", idx, width, lo, lo)
			}
		}
	}
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63())
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("random value %d outside bucket %d range [%d, %d]", v, idx, lo, hi)
		}
	}
}

// TestQuantileAgainstSortedOracle is the histogram correctness property: on
// randomized inputs spanning six orders of magnitude, every reported
// percentile must land within one bucket's relative error (1/subCount, plus
// the half-bucket midpoint rounding) of the exact sorted-sample oracle.
func TestQuantileAgainstSortedOracle(t *testing.T) {
	quantiles := []float64{0, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Min() != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 100 + rng.Intn(20000)
		h := &Histogram{}
		vals := make([]uint64, n)
		sum := 0.0
		for i := range vals {
			// Mix scales: sub-microsecond through minutes, in nanoseconds.
			v := uint64(rng.Int63n(int64(1) << uint(10+rng.Intn(26))))
			vals[i] = v
			sum += float64(v)
			h.Record(time.Duration(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if h.Count() != uint64(n) {
			t.Fatalf("trial %d: count %d, want %d", trial, h.Count(), n)
		}
		if h.Max() != vals[n-1] || h.Min() != vals[0] {
			t.Fatalf("trial %d: min/max (%d,%d), want (%d,%d)", trial, h.Min(), h.Max(), vals[0], vals[n-1])
		}
		if mean := sum / float64(n); math.Abs(h.Mean()-mean) > 1e-9*mean {
			t.Fatalf("trial %d: mean %g, want %g", trial, h.Mean(), mean)
		}
		if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
			t.Fatalf("trial %d: out-of-range q not clamped to [0, 1]", trial)
		}
		for _, q := range quantiles {
			rank := int(float64(n)*q+0.9999) - 1
			if rank < 0 {
				rank = 0
			}
			if rank >= n {
				rank = n - 1
			}
			exact := float64(vals[rank])
			got := float64(h.Quantile(q))
			// The quantile's sample sits in some bucket; the midpoint answer
			// can miss the exact value by at most the bucket width, which is
			// bounded by exact/subCount (and 0 below subCount).
			tol := exact/subCount + 1
			if got < exact-tol || got > exact+tol {
				t.Fatalf("trial %d: q%.3f = %g, oracle %g (tol %g, n=%d)", trial, q, got, exact, tol, n)
			}
		}
	}
}

// TestWritePrometheusExact pins the exposition: the le edges are powers of two
// in nanoseconds, every cumulative count equals the exact number of recorded
// values below its edge, +Inf and _count agree, _sum is in seconds, and NaN
// is dropped.
func TestWritePrometheusExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h Histogram
	vals := make([]uint64, 5000)
	sum := 0.0
	for i := range vals {
		vals[i] = uint64(rng.Int63n(int64(1) << uint(8+rng.Intn(34))))
		h.RecordSeconds(float64(vals[i]) / 1e9)
		sum += float64(vals[i])
	}
	h.RecordSeconds(math.NaN())
	var b strings.Builder
	h.WritePrometheus(&b, "x_seconds", "help text")
	text := b.String()
	for k := promMinExp; k <= promMaxExp; k++ {
		below := 0
		for _, v := range vals {
			if v < 1<<uint(k) {
				below++
			}
		}
		want := fmt.Sprintf("x_seconds_bucket{le=\"%g\"} %d\n", float64(uint64(1)<<uint(k))/1e9, below)
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	for _, want := range []string{
		"# HELP x_seconds help text\n# TYPE x_seconds histogram\n",
		fmt.Sprintf("x_seconds_bucket{le=\"+Inf\"} %d\n", len(vals)),
		fmt.Sprintf("x_seconds_count %d\n", len(vals)),
		fmt.Sprintf("x_seconds_sum %g\n", sum/1e9),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}
