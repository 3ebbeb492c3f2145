package load

import (
	"math"
	"sync"
	"sync/atomic"

	"mqpi/internal/metrics"
)

// Recorder collects everything the swarm measures. Latency histograms and op
// counters are lock-free; the ETA-accuracy accumulator takes a short mutex
// once per completed query (not per poll), keeping it off the hot path.
type Recorder struct {
	Submit metrics.Histogram // wall latency of POST /queries
	Poll   metrics.Histogram // wall latency of GET /queries/{id}
	E2E    metrics.Histogram // wall time from submit to first poll observing a terminal state

	Submitted atomic.Uint64 // accepted submissions (201)
	Rejected  atomic.Uint64 // admission 429s
	Errors    atomic.Uint64 // transport failures and unexpected statuses
	Polls     atomic.Uint64
	Completed atomic.Uint64 // queries observed reaching a terminal state
	Timeouts  atomic.Uint64 // queries still running when the swarm stopped
	Dropped   atomic.Uint64 // scheduled ops never fired (deadline hit first)

	eta etaAgg
}

// etaSample is one in-flight observation of a query's predicted finish: at
// virtual time Now the server predicted Now+ETA, with the uncertainty band
// [Now+Low, Now+High]. Fraction is the progress at sampling time, which is
// what buckets the accuracy curve.
type etaSample struct {
	Now, ETA, Low, High, Fraction float64
}

// etaBuckets splits ETA samples by the progress fraction at which they were
// taken: early-life predictions are expected to be worse than near-finish
// ones, and the curve shows whether load widens that gap.
const etaBuckets = 10

// etaBucket is one decile's accumulated accuracy.
type etaBucket struct {
	samples int
	sumAbs  float64 // |predicted finish - actual finish|, virtual seconds
	sumRel  float64 // abs error relative to the remaining time at sampling
	covered int     // actual finish fell inside [Now+Low, Now+High]
	banded  int     // samples that carried a finite band at all
}

type etaAgg struct {
	mu      sync.Mutex
	buckets [etaBuckets]etaBucket
}

// foldQuery folds one completed query's poll-time samples into the aggregate,
// given the actual (virtual) finish time reported after completion.
func (r *Recorder) foldQuery(samples []etaSample, actualFinish float64) {
	if len(samples) == 0 || math.IsNaN(actualFinish) || math.IsInf(actualFinish, 0) {
		return
	}
	r.eta.mu.Lock()
	defer r.eta.mu.Unlock()
	for _, s := range samples {
		if math.IsNaN(s.ETA) || math.IsInf(s.ETA, 0) {
			continue
		}
		i := int(s.Fraction * etaBuckets)
		if i < 0 {
			i = 0
		}
		if i >= etaBuckets {
			i = etaBuckets - 1
		}
		b := &r.eta.buckets[i]
		pred := s.Now + s.ETA
		abs := math.Abs(pred - actualFinish)
		remaining := actualFinish - s.Now
		if remaining < 1e-9 {
			remaining = 1e-9
		}
		b.samples++
		b.sumAbs += abs
		b.sumRel += abs / remaining
		if !math.IsNaN(s.Low) && !math.IsNaN(s.High) && !math.IsInf(s.High, 0) {
			b.banded++
			// One-quantum epsilon absorbs the granularity of tick-aligned
			// finishes, mirroring the calibration battery's convention.
			const eps = 1e-9
			if actualFinish >= s.Now+s.Low-eps && actualFinish <= s.Now+s.High+eps {
				b.covered++
			}
		}
	}
}

// ETAPoint is one decile of the ETA-accuracy-under-load curve.
type ETAPoint struct {
	FractionLo float64 `json:"fraction_lo"` // bucket start (0.0, 0.1, …)
	Samples    int     `json:"samples"`
	MeanAbsErr float64 `json:"mean_abs_err_s"` // virtual seconds
	MeanRelErr float64 `json:"mean_rel_err"`
	Coverage   float64 `json:"band_coverage"` // fraction of banded samples covered
	Banded     int     `json:"banded_samples"`
}

// ETAAccuracy is the swarm-wide ETA scorecard: pooled error plus the
// per-progress-decile curve.
type ETAAccuracy struct {
	Samples    int        `json:"samples"`
	MeanAbsErr float64    `json:"mean_abs_err_s"`
	MeanRelErr float64    `json:"mean_rel_err"`
	Coverage   float64    `json:"band_coverage"`
	Banded     int        `json:"banded_samples"`
	Curve      []ETAPoint `json:"curve"`
}

// ETA summarizes the folded samples.
func (r *Recorder) ETA() ETAAccuracy {
	r.eta.mu.Lock()
	defer r.eta.mu.Unlock()
	var out ETAAccuracy
	var sumAbs, sumRel float64
	var covered int
	for i, b := range r.eta.buckets {
		p := ETAPoint{FractionLo: float64(i) / etaBuckets, Samples: b.samples, Banded: b.banded}
		if b.samples > 0 {
			p.MeanAbsErr = b.sumAbs / float64(b.samples)
			p.MeanRelErr = b.sumRel / float64(b.samples)
		}
		if b.banded > 0 {
			p.Coverage = float64(b.covered) / float64(b.banded)
		}
		out.Curve = append(out.Curve, p)
		out.Samples += b.samples
		out.Banded += b.banded
		sumAbs += b.sumAbs
		sumRel += b.sumRel
		covered += b.covered
	}
	if out.Samples > 0 {
		out.MeanAbsErr = sumAbs / float64(out.Samples)
		out.MeanRelErr = sumRel / float64(out.Samples)
	}
	if out.Banded > 0 {
		out.Coverage = float64(covered) / float64(out.Banded)
	}
	return out
}
