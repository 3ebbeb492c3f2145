// Package load is the YCSB-style load harness: seeded arrival/template
// generators, a goroutine-per-client swarm that floods a live mqpi-serve
// endpoint with submit+poll traffic, lock-free latency recording, and an
// SLO scorecard (p50/p95/p99/p999 plus ETA-accuracy-under-load curves).
//
// Everything the swarm records is either lock-free (latency histograms,
// op counters) or folded under a short critical section once per completed
// query (ETA accuracy), so the harness itself stays off the latency path
// it is measuring.
package load

import "mqpi/internal/metrics"

// LatencyStats is one histogram's scorecard row, in milliseconds.
type LatencyStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ms"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
	Max   float64 `json:"max_ms"`
}

// latencyStats summarizes a histogram for the scorecard.
func latencyStats(h *metrics.Histogram) LatencyStats {
	ms := func(ns uint64) float64 { return float64(ns) / 1e6 }
	return LatencyStats{
		Count: h.Count(),
		Mean:  h.Mean() / 1e6,
		P50:   ms(h.Quantile(0.50)),
		P95:   ms(h.Quantile(0.95)),
		P99:   ms(h.Quantile(0.99)),
		P999:  ms(h.Quantile(0.999)),
		Max:   ms(h.Max()),
	}
}

// Ordered reports whether the percentile ladder is sane: non-empty and
// monotonic p50 <= p95 <= p99 <= p999. Bucket midpoints are monotonic by
// construction, so a violation means the histogram itself is corrupt; the
// smoke run asserts it to catch exactly that.
func (s LatencyStats) Ordered() bool {
	return s.Count > 0 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999
}
