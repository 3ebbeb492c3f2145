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
	MultiQuery float64
	// ETALow/ETAHigh bound the uncertainty band around MultiQuery. The
	// stage mode reports a degenerate band (Low == High == point); the
	// calibrated mode widens it by the point's rolling finish error.
	ETALow  float64
	ETAHigh float64
}

// EstimateInput is the pure-value input to ComputeEstimates: everything the
// §2.2–2.4 estimators need, with no pointers into a live scheduler. A service
// snapshot converts into one of these, which makes the estimate bundle a
// deterministic function of the scheduler state: the service's owner
// goroutine computes it once per state and publishes it with the snapshot,
// and every poll of that epoch reads the published bundle. The order of
// Running ++ Queued is the order of everything computed from the input:
// position i of a bundle is the estimate of Query(i).
type EstimateInput struct {
	Running  []QueryState    // admitted queries (blocked ones carry Weight 0)
	Queued   []QueryState    // admission queue, FIFO order
	MPL      int             // admission limit (0 = unlimited)
	RateC    float64         // processing rate C in U/s
	Speeds   map[int]float64 // observed per-query execution speeds in U/s
	Arrivals *ArrivalModel   // optional §2.4 future-arrival model
}

// Query returns the query at position i of Running ++ Queued.
func (in EstimateInput) Query(i int) QueryState {
	if i < len(in.Running) {
		return in.Running[i]
	}
	return in.Queued[i-len(in.Running)]
}

// Estimates is the bundle ComputeEstimates derives from one input: both
// indicators for every admitted and queued query, plus the system quiescent
// ETA — seconds until all *known* work drains, ignoring hypothetical future
// arrivals (matching §2.3's definition of quiescence).
type Estimates struct {
	// PerQuery is in the input's Running ++ Queued order: PerQuery[i] is the
	// estimate of in.Query(i). It carries no ids; whoever holds the input (or
	// the snapshot the input was derived from) holds them.
	PerQuery  []Estimate
	Quiescent float64
}

// ComputeEstimates computes the full estimate bundle from one immutable
// snapshot of the system. It is a pure function: the same input always yields
// the same output, nothing is retained, and nothing live is touched.
func ComputeEstimates(in EstimateInput) Estimates {
	var e stageEstimator
	return e.Estimates(in, EnsembleState{})
}

// quiescentOf is the last finite finish time: when all known work drains.
func quiescentOf(fin []float64) float64 {
	quiescent := 0.0
	for _, f := range fin {
		if !math.IsInf(f, 1) && f > quiescent {
			quiescent = f
		}
	}
	return quiescent
}

// stageEstimator is the stage-model estimate: one finish-tag pass (queuePass)
// for the known queries — an empty admission queue is §2.2, a non-empty one
// §2.3 — which gives the quiescent ETA, and the same pass again with the
// arrival model (§2.4) when the input carries one. It keeps the heap and the
// finish slice across calls and nothing else: every call is a function of its
// input alone, bit-identical to ComputeEstimates, with degenerate bands
// (Low == High == point) — the service tests and the sim's I6 and I13
// invariants pin this. The zero value is ready to use; not safe for concurrent
// use (the service's one estimator is only ever called from the owner
// goroutine, one pass per scheduler state).
type stageEstimator struct {
	pass queuePass
	fin  []float64 // finishes, Running ++ Queued order
}

func (e *stageEstimator) Mode() string { return EstimatorStage }

func (e *stageEstimator) Estimates(in EstimateInput, _ EnsembleState) Estimates {
	known := in
	known.Arrivals = nil
	e.fin = e.pass.finishes(known, e.fin)
	quiescent := quiescentOf(e.fin)
	if in.Arrivals != nil {
		e.fin = e.pass.finishes(in, e.fin)
	}
	return Estimates{PerQuery: bundleEstimates(in, e.fin), Quiescent: quiescent}
}

// bundleEstimates pairs the multi-query finish times, given in
// Running ++ Queued order, with the single-query c/s estimates: the one slice
// a pass allocates, which the caller publishes.
func bundleEstimates(in EstimateInput, fin []float64) []Estimate {
	out := make([]Estimate, len(fin))
	for i, m := range fin {
		q := in.Query(i)
		out[i] = Estimate{
			SingleQuery: SingleQueryRemainingTime(q.Remaining, in.Speeds[q.ID]),
			MultiQuery:  m,
			ETALow:      m,
			ETAHigh:     m,
		}
	}
	return out
}
