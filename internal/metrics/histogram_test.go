package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// bucketBounds returns the inclusive value range [lo, hi] of bucket idx: the
// inverse of bucketIndex the geometry test checks it against.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < subCount {
		return uint64(idx), uint64(idx)
	}
	shift := uint((idx - subCount) / subCount)
	sub := uint64((idx - subCount) % subCount)
	lo = (subCount + sub) << shift
	return lo, lo + (1 << shift) - 1
}

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

// TestCountAndMaxAgainstSortedOracle pins the count and the max: on randomized
// inputs spanning six orders of magnitude, both must equal the exact
// sorted-sample oracle's.
func TestCountAndMaxAgainstSortedOracle(t *testing.T) {
	var empty Histogram
	if empty.Count() != 0 || empty.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 100 + rng.Intn(20000)
		h := &Histogram{}
		vals := make([]uint64, n)
		for i := range vals {
			// Mix scales: sub-microsecond through minutes, in nanoseconds.
			v := uint64(rng.Int63n(int64(1) << uint(10+rng.Intn(26))))
			vals[i] = v
			h.Record(time.Duration(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if h.Count() != uint64(n) || h.Max() != vals[n-1] {
			t.Fatalf("trial %d: count/max (%d,%d), want (%d,%d)", trial, h.Count(), h.Max(), n, vals[n-1])
		}
	}
}

// TestWritePrometheusExact pins the exposition: the le edges are powers of two
// in nanoseconds, every cumulative count equals the exact number of recorded
// values below its edge, +Inf and _count agree, _sum is in seconds, and NaN
// is dropped while a negative value counts as zero.
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
	// Negative values count as zero, not as huge unsigned ones.
	h.Record(-time.Second)
	h.RecordSeconds(-2)
	vals = append(vals, 0, 0)
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

// TestHistogramConcurrentRecord hammers one histogram from many recorders
// while a scrape renders it, as the service's concurrent pollers do to
// pollDur: under -race nothing may tear, and once the recorders are joined
// _count must hold every value.
func TestHistogramConcurrentRecord(t *testing.T) {
	const recorders, perRecorder = 16, 20000
	var h Histogram
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				h.WritePrometheus(&b, "x_seconds", "help")
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < recorders; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perRecorder; i++ {
				h.Record(time.Duration(rng.Int63n(1 << 30)))
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	scraper.Wait()

	var b strings.Builder
	h.WritePrometheus(&b, "x_seconds", "help")
	if want := fmt.Sprintf("x_seconds_count %d\n", recorders*perRecorder); !strings.Contains(b.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, b.String())
	}
}
