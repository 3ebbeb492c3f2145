package core

import (
	"fmt"
	"math"
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
// closed forms over the input. Every member's ETAs are a slice in the input's
// Running ++ Queued order, like the bundle.
func (e *ensembleEstimator) Estimates(in EstimateInput, st EnsembleState) Estimates {
	out := e.stage.Estimates(in, st)
	stage := make([]float64, len(out.PerQuery))
	for i, b := range out.PerQuery {
		stage[i] = b.MultiQuery
	}
	out.members = [numMembers][]float64{stage, costMemberETAs(in), speedMemberETAs(in, st.SpeedEWMA)}

	w := blendWeights(e.mode, st)
	out.Weights = make(map[string]float64, numMembers)
	// wErr is the error-calibrated half-width component: the blend-weighted
	// rolling error of the members (0 until residuals arrive).
	wErr := 0.0
	for i, name := range MemberNames {
		out.Weights[name] = w[i]
		wErr += w[i] * st.Errors[name]
	}

	// The stage bundle becomes the blended one in place: the single-query
	// estimate stays, the point and the band are the blend's.
	for i := range out.PerQuery {
		var etas [numMembers]float64
		for m := range etas {
			etas[m] = out.members[m][i]
		}
		point, lo, hi := blendPoint(etas, w)
		b := &out.PerQuery[i]
		b.MultiQuery, b.ETALow, b.ETAHigh = point, point, point
		if !isFiniteETA(point) {
			continue
		}
		half := wErr + bandRelFloor*point
		if b.ETALow = lo - half; b.ETALow < 0 {
			b.ETALow = 0
		}
		b.ETAHigh = hi + half
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
// the runnable set, by position in in.Running — the model speed both heuristic
// members fall back to when no (or no trustworthy) observation exists.
func runnableShare(in EstimateInput) (share []float64, C float64) {
	C = sanitizeRate(in.RateC)
	share = make([]float64, len(in.Running))
	W := 0.0
	for _, q := range in.Running {
		if s := sanitize(q); s.Weight > 0 {
			W += s.Weight
		}
	}
	if W <= 0 || C <= 0 {
		return share, C
	}
	for i, q := range in.Running {
		if s := sanitize(q); s.Weight > 0 {
			share[i] = C * (s.Weight / W)
		}
	}
	return share, C
}

// queuedBacklogETAs gives every queued query the optimizer-cost view of its
// wait: all runnable remaining work plus the queue ahead of it drains at the
// aggregate rate C before its own cost does. out is the queued tail of a
// member's slice.
func queuedBacklogETAs(in EstimateInput, C float64, out []float64) {
	backlog := 0.0
	for _, q := range in.Running {
		if s := sanitize(q); s.Weight > 0 {
			backlog += s.Remaining
		}
	}
	for i, q := range in.Queued {
		backlog += sanitize(q).Remaining
		if C <= 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = backlog / C
	}
}

// costMemberETAs is the optimizer-cost member: remaining cost divided by a
// blended speed — the mean of the observed execution speed and the model's
// fair share C·w/W (falling back to the share alone before any observation).
// It reacts faster than the stage model when observed speeds drift from the
// model (Assumption 1 violations) but ignores upcoming stage transitions.
func costMemberETAs(in EstimateInput) []float64 {
	share, C := runnableShare(in)
	out := make([]float64, len(in.Running)+len(in.Queued))
	for i, q := range in.Running {
		s := sanitize(q)
		sp := share[i]
		if obs := in.Speeds[s.ID]; obs > 0 && sp > 0 {
			sp = (obs + sp) / 2
		}
		out[i] = SingleQueryRemainingTime(s.Remaining, sp)
	}
	queuedBacklogETAs(in, C, out[len(in.Running):])
	return out
}

// speedMemberETAs is the speed-history member: remaining cost divided by the
// EWMA of the query's observed speed — a pure extrapolation of measured
// throughput, robust to a mis-specified rate C but blind to the future mix.
func speedMemberETAs(in EstimateInput, ewma map[int]float64) []float64 {
	share, C := runnableShare(in)
	out := make([]float64, len(in.Running)+len(in.Queued))
	for i, q := range in.Running {
		s := sanitize(q)
		if s.Weight <= 0 {
			out[i] = SingleQueryRemainingTime(s.Remaining, 0)
			continue
		}
		sp := ewma[s.ID]
		if sp <= 0 {
			sp = in.Speeds[s.ID]
		}
		if sp <= 0 {
			sp = share[i]
		}
		out[i] = SingleQueryRemainingTime(s.Remaining, sp)
	}
	queuedBacklogETAs(in, C, out[len(in.Running):])
	return out
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
// on in — its positions are zipped with in's ids (stage-mode bundles carry no
// member breakdown and are ignored).
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
	for i, e := range est.PerQuery {
		id := in.Query(i).ID
		var p [numMembers]float64
		for m := range p {
			eta := est.members[m][i]
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
