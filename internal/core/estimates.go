package core

import "math"

// Estimate bundles the two competing remaining-time views of one query, the
// comparison the paper's evaluation is built around: the single-query PI's
// t = c/s against the multi-query stage model.
type Estimate struct {
	// SingleQuery is the classic estimate c/s from the query's currently
	// observed speed (+Inf when the speed is zero, e.g. blocked or queued).
	SingleQuery float64
	// MultiQuery is the stage-model estimate, aware of the other running
	// queries, the admission queue, and (optionally) predicted arrivals.
	// Under an ensemble estimator this is the blended point.
	MultiQuery float64
	// ETALow/ETAHigh bound the uncertainty band around MultiQuery. The
	// classic stage path reports a degenerate band (Low == High == point);
	// ensemble modes widen it by member spread and calibrated rolling error.
	ETALow  float64
	ETAHigh float64
}

// EstimateInput is the pure-value input to ComputeEstimates: everything the
// §2.2–2.4 estimators need, with no pointers into a live scheduler. A service
// snapshot converts into one of these, which makes the estimate bundle a
// deterministic function of the scheduler state: the service's owner
// goroutine computes it once per state and publishes it with the snapshot,
// and every poll of that epoch reads the published bundle.
type EstimateInput struct {
	Running  []QueryState    // admitted queries (blocked ones carry Weight 0)
	Queued   []QueryState    // admission queue, FIFO order
	MPL      int             // admission limit (0 = unlimited)
	RateC    float64         // processing rate C in U/s
	Speeds   map[int]float64 // observed per-query execution speeds in U/s
	Arrivals *ArrivalModel   // optional §2.4 future-arrival model
}

// Estimates is the bundle ComputeEstimates derives from one input: both
// indicators for every admitted and queued query, plus the system quiescent
// ETA — seconds until all *known* work drains, ignoring hypothetical future
// arrivals (matching §2.3's definition of quiescence).
type Estimates struct {
	PerQuery  map[int]Estimate
	Quiescent float64
	// Weights maps ensemble member name to its blend weight for this pass
	// (nil on the classic stage path, which runs no ensemble).
	Weights map[string]float64
	// members holds each member's raw per-query ETA (index order follows
	// MemberNames); only ensemble modes fill it, for calibration accounting.
	members [numMembers]map[int]float64
}

// ComputeEstimates computes the full estimate bundle from one immutable
// snapshot of the system. It is a pure function: the same input always yields
// the same output, nothing is retained, and nothing live is touched.
func ComputeEstimates(in EstimateInput) Estimates {
	var base Profile
	if len(in.Queued) == 0 {
		// An empty admission queue degenerates to §2.2 exactly, so it takes
		// the closed form instead of the event-stepped simulation (the two
		// agree to float rounding, a property the tests pin) — the same
		// materialization the incremental stage structure reproduces
		// bit-for-bit.
		base = ComputeProfile(in.Running, in.RateC)
	} else {
		base = SimulateProfile(in.Running, in.RateC, SimOptions{MPL: in.MPL, Queued: in.Queued})
	}
	multi := base.Finish
	if in.Arrivals != nil {
		multi = SimulateProfile(in.Running, in.RateC,
			SimOptions{MPL: in.MPL, Queued: in.Queued, Arrivals: in.Arrivals}).Finish
	}
	return Estimates{
		PerQuery:  bundleEstimates(in.Running, in.Queued, in.Speeds, multi),
		Quiescent: quiescentOf(base.Finish),
	}
}

// quiescentOf is the last finite finish time: when all known work drains.
func quiescentOf(finish map[int]float64) float64 {
	quiescent := 0.0
	for _, f := range finish {
		if !math.IsInf(f, 1) && f > quiescent {
			quiescent = f
		}
	}
	return quiescent
}

// stageEstimator is the production stage-model path: ComputeEstimates with a
// maintained stage structure. Repeated calls over a slowly changing mix reuse
// the sorted stage order and patch only what changed, refilling the bundle in
// O(n + changed·log n) instead of re-sorting in O(n log n). Results are
// bit-identical to ComputeEstimates on the same input, with its degenerate
// bands (Low == High == point) — the service tests and the sim's I6 and I13
// invariants pin this. When the input has a non-empty admission queue or an
// arrival model, the event-stepped simulation is the only correct estimator
// and the call falls back to ComputeEstimates verbatim. The zero value is
// ready to use; not safe for concurrent use (the service's one estimator is
// only ever called from the owner goroutine, one pass per scheduler state).
type stageEstimator struct {
	prof *IncrementalProfile
	base Profile // reused materialization target
}

func (e *stageEstimator) Mode() string { return EstimatorStage }

// Estimates computes the same bundle ComputeEstimates would, maintaining the
// incremental stage structure across calls.
func (e *stageEstimator) Estimates(in EstimateInput, _ EnsembleState) Estimates {
	if len(in.Queued) > 0 || in.Arrivals != nil {
		return ComputeEstimates(in)
	}
	if e.prof == nil {
		e.prof = NewIncrementalProfile()
	}
	e.prof.Sync(in.Running)
	e.prof.ProfileInto(in.RateC, &e.base)
	return Estimates{
		PerQuery:  bundleEstimates(in.Running, in.Queued, in.Speeds, e.base.Finish),
		Quiescent: quiescentOf(e.base.Finish),
	}
}

// bundleEstimates pairs the per-query multi-query finish times with the
// single-query c/s estimates.
func bundleEstimates(running, queued []QueryState, speeds map[int]float64, multi map[int]float64) map[int]Estimate {
	out := make(map[int]Estimate, len(running)+len(queued))
	add := func(states []QueryState) {
		for _, q := range states {
			m := multi[q.ID]
			out[q.ID] = Estimate{
				SingleQuery: SingleQueryRemainingTime(q.Remaining, speeds[q.ID]),
				MultiQuery:  m,
				ETALow:      m,
				ETAHigh:     m,
			}
		}
	}
	add(running)
	add(queued)
	return out
}
