package core

import (
	"fmt"
	"math"
	"sort"
)

// This file is the pluggable estimate plane: a small interface over the
// §2.2–2.4 stage model plus two independent remaining-time estimators and an
// online blender. Following "A Statistical Approach Towards Robust Progress
// Estimation" (König et al.) no single estimator dominates across workloads,
// so the ensemble runs all members per query, weights them by observed
// rolling error (per-query absolute ETA error measured at finish), and —
// following "Uncertainty Aware Query Execution Time Prediction" (Wu et al.) —
// reports an uncertainty band around the blended point, not just the mean.
//
// The "stage" member is the stageEstimator itself, and the stage *mode* is
// a pure pass-through: its outputs are bit-identical to the pre-ensemble
// estimate path (the sim's I13 invariant pins this), so nothing changes
// until a caller opts into the ensemble.

// Estimator modes accepted by NewEstimator (and the service's -estimator
// flag). "stage" is the classic single-pipeline stage model; "cost" and
// "speed" force a single ensemble member; "ensemble" blends all members
// online by rolling error.
const (
	EstimatorStage    = "stage"
	EstimatorCost     = "cost"
	EstimatorSpeed    = "speed"
	EstimatorEnsemble = "ensemble"
)

// EstimatorModes lists the valid estimator modes in display order.
func EstimatorModes() []string {
	return []string{EstimatorStage, EstimatorCost, EstimatorSpeed, EstimatorEnsemble}
}

// ValidEstimator rejects unknown estimator modes with a message listing the
// valid ones ("" is accepted as the default, stage).
func ValidEstimator(mode string) error {
	switch mode {
	case "", EstimatorStage, EstimatorCost, EstimatorSpeed, EstimatorEnsemble:
		return nil
	}
	valid := EstimatorModes()
	return fmt.Errorf("core: unknown estimator %q (valid: %s, %s, %s, %s)",
		mode, valid[0], valid[1], valid[2], valid[3])
}

// Ensemble member indices. MemberNames gives the canonical exposition order
// used for weights maps and the mqpi_estimator_weight{member=...} gauges.
const (
	memberStage = iota
	memberCost
	memberSpeed
	numMembers
)

// MemberNames names the ensemble members in index order.
var MemberNames = [numMembers]string{EstimatorStage, EstimatorCost, EstimatorSpeed}

// Interval is an uncertainty band in seconds. Low <= High; a degenerate band
// (Low == High == point) means the estimator reports no uncertainty.
type Interval struct {
	Low  float64
	High float64
}

// Estimator is the pluggable estimate plane: anything that turns one
// immutable EstimateInput plus the published calibration state into the full
// estimate bundle. Implementations may keep scratch memory between calls (the
// stage member's finish-tag heap), but their output must be a pure
// function of (input, state) — the service runs one pass per scheduler state
// on its owner goroutine and publishes the bundle with the snapshot, and the
// differentials compare that bundle with a from-scratch recomputation.
type Estimator interface {
	// Mode reports which estimator this is (one of EstimatorModes).
	Mode() string
	// Estimates computes the bundle. The zero EnsembleState means
	// "uncalibrated": equal blend weights, no speed history.
	Estimates(in EstimateInput, st EnsembleState) Estimates
}

// NewEstimator builds the estimator for a mode ("" = stage). The stage
// estimator is the pre-ensemble pipeline verbatim; every other mode runs the
// member ensemble with a fixed or error-weighted selection.
func NewEstimator(mode string) (Estimator, error) {
	if err := ValidEstimator(mode); err != nil {
		return nil, err
	}
	switch mode {
	case "", EstimatorStage:
		return &stageEstimator{}, nil
	default:
		return &ensembleEstimator{mode: mode}, nil
	}
}

// EnsembleState is the published calibration state the ensemble members and
// blender read: immutable once published, safe to share across goroutines.
// The zero value is a valid "uncalibrated" state.
type EnsembleState struct {
	// Errors maps member name to its rolling mean absolute ETA error in
	// seconds, updated from finish-time residuals (nil = no observations).
	Errors map[string]float64
	// SpeedEWMA maps query ID to the speed-history member's smoothed observed
	// speed in U/s (nil = no history).
	SpeedEWMA map[int]float64
	// Samples counts the finish residuals folded into Errors.
	Samples int
}

// ensembleEstimator runs all three members and selects or blends per mode.
type ensembleEstimator struct {
	mode  string
	stage stageEstimator // the stage member
}

func (e *ensembleEstimator) Mode() string { return e.mode }

// memberWeight floors a rolling error when inverting it into a weight, so a
// member with a (so far) zero observed error cannot monopolize the blend.
const errWeightFloor = 1e-3

// blendWeights derives the member weights for a mode from the calibration
// state: forced single-member for cost/speed, inverse rolling error for the
// ensemble (equal weights until the first finish residual lands).
func blendWeights(mode string, st EnsembleState) [numMembers]float64 {
	var w [numMembers]float64
	switch mode {
	case EstimatorCost:
		w[memberCost] = 1
		return w
	case EstimatorSpeed:
		w[memberSpeed] = 1
		return w
	}
	if st.Samples == 0 || len(st.Errors) == 0 {
		for i := range w {
			w[i] = 1.0 / numMembers
		}
		return w
	}
	sum := 0.0
	for i, name := range MemberNames {
		w[i] = 1 / (st.Errors[name] + errWeightFloor)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// bandRelFloor is the default band's relative half-width floor: even with no
// calibration history yet, the reported interval spans at least ±10% of the
// point estimate (plus the member spread). The calibration sweep measures the
// fraction of true finish times inside this default band.
const bandRelFloor = 0.10

// Estimates runs the member ensemble. The stage member is the classic path's
// stageEstimator, finish-tag pass and all; the cost and speed members are O(n)
// closed forms over the input.
func (e *ensembleEstimator) Estimates(in EstimateInput, st EnsembleState) Estimates {
	base := e.stage.Estimates(in, st)
	stage := make(map[int]float64, len(base.PerQuery))
	for id, b := range base.PerQuery {
		stage[id] = b.MultiQuery
	}
	cost := costMemberETAs(in)
	speed := speedMemberETAs(in, st.SpeedEWMA)

	w := blendWeights(e.mode, st)
	weights := make(map[string]float64, numMembers)
	for i, name := range MemberNames {
		weights[name] = w[i]
	}

	// wErr is the error-calibrated half-width component: the blend-weighted
	// rolling error of the members (0 until residuals arrive).
	wErr := 0.0
	for i, name := range MemberNames {
		wErr += w[i] * st.Errors[name]
	}

	out := Estimates{
		PerQuery:  make(map[int]Estimate, len(base.PerQuery)),
		Quiescent: base.Quiescent,
		Weights:   weights,
	}
	out.members[memberStage] = stage
	out.members[memberCost] = cost
	out.members[memberSpeed] = speed
	for id, b := range base.PerQuery {
		etas := [numMembers]float64{stage[id], cost[id], speed[id]}
		point, lo, hi := blendPoint(etas, w)
		if !isFiniteETA(point) {
			out.PerQuery[id] = Estimate{
				SingleQuery: b.SingleQuery, MultiQuery: point,
				ETALow: point, ETAHigh: point,
			}
			continue
		}
		half := wErr + bandRelFloor*point
		low := lo - half
		if low < 0 {
			low = 0
		}
		out.PerQuery[id] = Estimate{
			SingleQuery: b.SingleQuery,
			MultiQuery:  point,
			ETALow:      low,
			ETAHigh:     hi + half,
		}
	}
	return out
}

func isFiniteETA(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// blendPoint folds the member ETAs into the blended point plus the raw member
// spread [lo, hi]. Members with non-finite ETAs drop out (their weight is
// redistributed); if no member is finite the point is +Inf.
func blendPoint(etas [numMembers]float64, w [numMembers]float64) (point, lo, hi float64) {
	sumW, sum := 0.0, 0.0
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, eta := range etas {
		if !isFiniteETA(eta) || w[i] <= 0 {
			continue
		}
		sumW += w[i]
		sum += w[i] * eta
		if eta < lo {
			lo = eta
		}
		if eta > hi {
			hi = eta
		}
	}
	if sumW <= 0 {
		inf := math.Inf(1)
		return inf, inf, inf
	}
	return sum / sumW, lo, hi
}

// runnableShare computes each running query's weighted fair share C·w/W over
// the runnable set — the model speed both heuristic members fall back to when
// no (or no trustworthy) observation exists.
func runnableShare(in EstimateInput) (share map[int]float64, C float64) {
	C = sanitizeRate(in.RateC)
	share = make(map[int]float64, len(in.Running))
	W := 0.0
	for _, q := range in.Running {
		if s := sanitize(q); s.Weight > 0 {
			W += s.Weight
		}
	}
	for _, q := range in.Running {
		s := sanitize(q)
		if s.Weight <= 0 || W <= 0 || C <= 0 {
			share[s.ID] = 0
			continue
		}
		share[s.ID] = C * (s.Weight / W)
	}
	return share, C
}

// queuedBacklogETAs gives every queued query the optimizer-cost view of its
// wait: all runnable remaining work plus the queue ahead of it drains at the
// aggregate rate C before its own cost does.
func queuedBacklogETAs(in EstimateInput, C float64, out map[int]float64) {
	backlog := 0.0
	for _, q := range in.Running {
		if s := sanitize(q); s.Weight > 0 {
			backlog += s.Remaining
		}
	}
	for _, q := range in.Queued {
		s := sanitize(q)
		backlog += s.Remaining
		if C <= 0 {
			out[s.ID] = math.Inf(1)
			continue
		}
		out[s.ID] = backlog / C
	}
}

// costMemberETAs is the optimizer-cost member: remaining cost divided by a
// blended speed — the mean of the observed execution speed and the model's
// fair share C·w/W (falling back to the share alone before any observation).
// It reacts faster than the stage model when observed speeds drift from the
// model (Assumption 1 violations) but ignores upcoming stage transitions.
func costMemberETAs(in EstimateInput) map[int]float64 {
	share, C := runnableShare(in)
	out := make(map[int]float64, len(in.Running)+len(in.Queued))
	for _, q := range in.Running {
		s := sanitize(q)
		sp := share[s.ID]
		if obs := in.Speeds[s.ID]; obs > 0 && sp > 0 {
			sp = (obs + sp) / 2
		}
		out[s.ID] = remainingOver(s.Remaining, sp)
	}
	queuedBacklogETAs(in, C, out)
	return out
}

// speedMemberETAs is the speed-history member: remaining cost divided by the
// EWMA of the query's observed speed — a pure extrapolation of measured
// throughput, robust to a mis-specified rate C but blind to the future mix.
func speedMemberETAs(in EstimateInput, ewma map[int]float64) map[int]float64 {
	share, C := runnableShare(in)
	out := make(map[int]float64, len(in.Running)+len(in.Queued))
	for _, q := range in.Running {
		s := sanitize(q)
		if s.Weight <= 0 {
			out[s.ID] = remainingOver(s.Remaining, 0)
			continue
		}
		sp := ewma[s.ID]
		if sp <= 0 {
			sp = in.Speeds[s.ID]
		}
		if sp <= 0 {
			sp = share[s.ID]
		}
		out[s.ID] = remainingOver(s.Remaining, sp)
	}
	queuedBacklogETAs(in, C, out)
	return out
}

// remainingOver is c/s with the blocked/degenerate conventions of
// SingleQueryRemainingTime.
func remainingOver(remaining, speed float64) float64 {
	if remaining <= 0 {
		return 0
	}
	if speed <= 0 {
		return math.Inf(1)
	}
	return remaining / speed
}

// speedEWMAAlpha smooths the speed-history member's per-query speed; errAlpha
// smooths the per-member rolling ETA error fed by finish residuals.
const (
	speedEWMAAlpha = 0.3
	errAlpha       = 0.25
)

// EnsembleCalib is the owner-side calibration accumulator: it watches every
// published estimate pass (Observe), turns query finishes into per-member
// absolute ETA residuals (Finish), and exports the immutable EnsembleState
// the pure estimate computation reads. Not safe for concurrent use — the
// service owner goroutine is the only writer, and State() copies.
type EnsembleCalib struct {
	errs     [numMembers]float64
	seeded   [numMembers]bool
	samples  int
	ewma     map[int]float64
	preds    map[int][numMembers]float64
	bands    map[int]Interval
	finishes uint64 // finishes with a recorded band
	within   uint64 // ... whose true finish fell inside that band
}

// NewEnsembleCalib returns an empty calibration accumulator.
func NewEnsembleCalib() *EnsembleCalib {
	return &EnsembleCalib{
		ewma:  make(map[int]float64),
		preds: make(map[int][numMembers]float64),
		bands: make(map[int]Interval),
	}
}

// Observe folds one estimate pass into the calibration state: per-query speed
// EWMAs for the speed-history member, each member's absolute predicted finish
// (now + member ETA) for residual accounting, and the reported absolute band
// for coverage accounting. est must come from an ensemble-mode Estimator run
// on the same input (stage-mode bundles carry no member breakdown and are
// ignored).
func (c *EnsembleCalib) Observe(now float64, in EstimateInput, est Estimates) {
	for _, q := range in.Running {
		if s := in.Speeds[q.ID]; s > 0 {
			if prev, ok := c.ewma[q.ID]; ok {
				c.ewma[q.ID] = speedEWMAAlpha*s + (1-speedEWMAAlpha)*prev
			} else {
				c.ewma[q.ID] = s
			}
		}
	}
	if est.members[memberStage] == nil {
		return
	}
	for id, e := range est.PerQuery {
		var p [numMembers]float64
		for m := range p {
			eta := est.members[m][id]
			if isFiniteETA(eta) {
				p[m] = now + eta
			} else {
				p[m] = math.NaN()
			}
		}
		c.preds[id] = p
		if isFiniteETA(e.ETALow) && isFiniteETA(e.ETAHigh) {
			c.bands[id] = Interval{Low: now + e.ETALow, High: now + e.ETAHigh}
		} else {
			delete(c.bands, id)
		}
	}
}

// Finish records a query's true finish time: each member with a live
// prediction gets its absolute residual folded into the rolling error, and
// the last reported band is scored for coverage. Call exactly once per
// successful finish; aborted/failed queries go through Forget.
func (c *EnsembleCalib) Finish(id int, finishTime float64) {
	if p, ok := c.preds[id]; ok {
		counted := false
		for m := range p {
			if math.IsNaN(p[m]) {
				continue
			}
			r := math.Abs(p[m] - finishTime)
			if c.seeded[m] {
				c.errs[m] = errAlpha*r + (1-errAlpha)*c.errs[m]
			} else {
				c.errs[m] = r
				c.seeded[m] = true
			}
			counted = true
		}
		if counted {
			c.samples++
		}
	}
	if b, ok := c.bands[id]; ok {
		c.finishes++
		if finishTime >= b.Low-1e-9 && finishTime <= b.High+1e-9 {
			c.within++
		}
	}
	c.Forget(id)
}

// Forget drops a query's calibration entries (abort, failure, or any exit
// that should not produce a residual).
func (c *EnsembleCalib) Forget(id int) {
	delete(c.ewma, id)
	delete(c.preds, id)
	delete(c.bands, id)
}

// Coverage reports the lifetime band-coverage counters: finishes with a
// reported interval, and those whose true finish time fell inside it. Both
// are monotonic, ready for Prometheus counters.
func (c *EnsembleCalib) Coverage() (within, finishes uint64) {
	return c.within, c.finishes
}

// State exports the immutable calibration state for publication: rolling
// errors by member name, a copy of the speed EWMAs, and the residual count.
func (c *EnsembleCalib) State() EnsembleState {
	st := EnsembleState{Samples: c.samples}
	if c.samples > 0 {
		st.Errors = make(map[string]float64, numMembers)
		for i, name := range MemberNames {
			st.Errors[name] = c.errs[i]
		}
	}
	if len(c.ewma) > 0 {
		st.SpeedEWMA = make(map[int]float64, len(c.ewma))
		for id, v := range c.ewma {
			st.SpeedEWMA[id] = v
		}
	}
	return st
}

// SortedWeights renders a weights map in canonical member order, for
// deterministic exposition (metrics, overview JSON, experiment tables).
func SortedWeights(w map[string]float64) []struct {
	Member string
	Weight float64
} {
	out := make([]struct {
		Member string
		Weight float64
	}, 0, len(w))
	for _, name := range MemberNames {
		if v, ok := w[name]; ok {
			out = append(out, struct {
				Member string
				Weight float64
			}{name, v})
		}
	}
	// Any non-canonical members (future-proofing) go last, sorted.
	var extra []string
	for name := range w {
		known := false
		for _, m := range MemberNames {
			if m == name {
				known = true
				break
			}
		}
		if !known {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, struct {
			Member string
			Weight float64
		}{name, w[name]})
	}
	return out
}
