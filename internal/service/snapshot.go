package service

import (
	"time"

	"mqpi/internal/core"
	"mqpi/internal/sched"
)

// Snapshot is the immutable, epoch-stamped view of the whole service that the
// owner goroutine publishes (through an atomic pointer) after every mutation:
// each tick batch, submission, block/unblock/abort, and priority change.
// Readers load the latest snapshot and derive whatever view they need on
// their own goroutine — nothing in a Snapshot aliases state the scheduler
// will write again (Sched.Done is this epoch's prefix of the scheduler's
// append-only terminated history, Sched.Queued a view of a queue capture the
// scheduler replaces rather than writes), so no locking is required and polls
// never stall the scheduler.
//
// Epoch increases by exactly one per publication; every reader of one epoch
// sees the same scheduler state and the same estimates of it.
type Snapshot struct {
	Epoch     uint64
	Published time.Time // wall-clock publication time (snapshot age = now - Published)
	Sched     sched.Snapshot
	TimeScale float64
	// Estimator is the configured estimate-plane mode (core.EstimatorModes).
	Estimator string
	// est is the estimate bundle the Manager's estimator produced from Sched:
	// both indicators for every admitted and queued query, by position in
	// Sched.Running ++ Sched.Queued, and the quiescent ETA. Never written
	// after publish.
	est core.Estimates
	// counts are the owner's lifetime totals as of this state; /metrics
	// renders them beside its gauges.
	counts counts
}

// estimateInput converts the snapshot to the pure-value input of the §2.2–2.4
// estimators, in the snapshot's own order. arrivals is the manager's
// configured §2.4 model, which the snapshot does not carry.
func (s *Snapshot) estimateInput(arrivals *core.ArrivalModel) core.EstimateInput {
	return core.EstimateInput{
		Running:  s.Sched.StatesRunning(),
		Queued:   s.Sched.StatesQueued(),
		MPL:      s.Sched.MPL,
		RateC:    s.Sched.RateC,
		Speeds:   s.Sched.Speeds(),
		Arrivals: arrivals,
	}
}

// view builds the client view of one query: the single snapshot→view step
// behind Progress and the view Submit returns — one scan finds the query and
// the position of its estimate. It stamps the view with the snapshot's virtual
// clock so clients can turn the relative ETA into an absolute predicted finish
// (now + eta) and audit it against finish_time once the query completes.
func (s *Snapshot) view(id int) (QueryView, bool) {
	info, pos, ok := s.Sched.Locate(id)
	if !ok {
		return QueryView{}, false
	}
	var est core.Estimate // none for a scheduled or terminated query
	if pos >= 0 {
		est = s.est.PerQuery[pos]
	}
	view := makeView(info, est)
	view.Now = Seconds(s.Sched.Now)
	return view, true
}
