package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// This file is the estimate plane: the §2.2–2.4 stage model behind a small
// interface, and — following "Uncertainty Aware Query Execution Time
// Prediction" (Wu et al.) — one uncertainty band around its point, from the
// point's own rolling finish error plus a relative floor. Both modes serve
// the points of ComputeEstimates bit for bit; only the band differs.

// Estimator modes accepted by NewEstimator (and the service's -estimator
// flag). "stage" is the stage model with degenerate bands; "calibrated" is
// the same point with a band from its rolling finish error.
const (
	EstimatorStage      = "stage"
	EstimatorCalibrated = "calibrated"
)

// EstimatorModes lists the valid estimator modes in display order.
func EstimatorModes() []string { return []string{EstimatorStage, EstimatorCalibrated} }

// ValidEstimator rejects unknown estimator modes with a message listing the
// valid ones ("" is accepted as the default, stage).
func ValidEstimator(mode string) error {
	if mode == "" || slices.Contains(EstimatorModes(), mode) {
		return nil
	}
	return fmt.Errorf("core: unknown estimator %q (valid: %s)", mode, strings.Join(EstimatorModes(), ", "))
}

// Interval is an uncertainty band in seconds. Low <= High; a degenerate band
// (Low == High == point) means the estimator reports no uncertainty.
type Interval struct {
	Low  float64
	High float64
}

// Estimator is the estimate plane: anything that turns one immutable
// EstimateInput plus the published calibration state into the full estimate
// bundle. Implementations may keep scratch memory between calls (the stage
// model's finish-tag heap), but their output must be a pure function of
// (input, state) — the service runs one pass per scheduler state on its owner
// goroutine and publishes the bundle with the snapshot, and the differentials
// compare that bundle with a from-scratch recomputation.
type Estimator interface {
	// Mode reports which estimator this is (one of EstimatorModes).
	Mode() string
	// Estimates computes the bundle. The zero EnsembleState means
	// "uncalibrated": no finish error observed yet.
	Estimates(in EstimateInput, st EnsembleState) Estimates
}

// NewEstimator builds the estimator for a mode ("" = stage).
func NewEstimator(mode string) (Estimator, error) {
	if err := ValidEstimator(mode); err != nil {
		return nil, err
	}
	if mode == EstimatorCalibrated {
		return &calibratedEstimator{}, nil
	}
	return &stageEstimator{}, nil
}

// EnsembleState is the published calibration state the calibrated band
// reads: a value, safe to share across goroutines. The zero value is a valid
// "uncalibrated" state.
type EnsembleState struct {
	// Err is the rolling mean absolute finish error of the stage point in
	// seconds: an errAlpha EWMA of finish-time residuals, seeded by the
	// first (0 until then).
	Err float64
	// Samples counts the finish residuals folded into Err.
	Samples int
}

// calibratedEstimator serves the stage estimate with a band around its point.
type calibratedEstimator struct{ stage stageEstimator }

func (e *calibratedEstimator) Mode() string { return EstimatorCalibrated }

// bandRelFloor is the band's relative half-width floor: even with no
// calibration history yet, the reported interval spans at least ±10% of the
// point estimate.
const bandRelFloor = 0.10

// Estimates runs the stage estimator and widens each finite point p into
// [max(0, p − Err − 0.1·p), p + Err + 0.1·p]. A non-finite point keeps the
// degenerate band the stage estimator gave it.
func (e *calibratedEstimator) Estimates(in EstimateInput, st EnsembleState) Estimates {
	out := e.stage.Estimates(in, st)
	for i := range out.PerQuery {
		if b := &out.PerQuery[i]; isFiniteETA(b.MultiQuery) {
			half := st.Err + bandRelFloor*b.MultiQuery
			b.ETALow, b.ETAHigh = max(0, b.MultiQuery-half), b.MultiQuery+half
		}
	}
	return out
}

func isFiniteETA(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// errAlpha smooths the rolling finish error fed by finish residuals.
const errAlpha = 0.25

// EnsembleCalib is the owner-side calibration accumulator: it watches every
// published estimate pass (Observe), turns query finishes into absolute
// residuals of the stage point and band-coverage counts (Finish), and exports
// the EnsembleState the pure estimate computation reads. Not safe for
// concurrent use — the service owner goroutine is the only writer.
type EnsembleCalib struct {
	err      float64
	samples  int
	last     map[int]prediction // query -> its last finite prediction
	finishes uint64             // finishes with a recorded band
	within   uint64             // ... whose true finish fell inside that band
}

// prediction is one query's predicted finish and band, in absolute time.
type prediction struct{ finish, low, high float64 }

// NewEnsembleCalib returns an empty calibration accumulator.
func NewEnsembleCalib() *EnsembleCalib {
	return &EnsembleCalib{last: make(map[int]prediction)}
}

// Observe folds one estimate pass into the calibration state: each query's
// absolute predicted finish (now + MultiQuery) and band. est must come from
// the calibrated Estimator run on in — its positions are zipped with in's
// ids, and a finite point has a finite band. A query whose point is not
// finite drops its prediction.
func (c *EnsembleCalib) Observe(now float64, in EstimateInput, est Estimates) {
	for i, e := range est.PerQuery {
		if id := in.Query(i).ID; isFiniteETA(e.MultiQuery) {
			c.last[id] = prediction{now + e.MultiQuery, now + e.ETALow, now + e.ETAHigh}
		} else {
			delete(c.last, id)
		}
	}
}

// Finish records a query's true finish time against its last prediction: the
// absolute residual is folded into the rolling error, and the band is scored
// for coverage. Call exactly once per successful finish; aborted/failed
// queries go through Forget.
func (c *EnsembleCalib) Finish(id int, finishTime float64) {
	p, ok := c.last[id]
	if !ok {
		return
	}
	c.Forget(id)
	if r := math.Abs(p.finish - finishTime); c.samples > 0 {
		c.err = errAlpha*r + (1-errAlpha)*c.err
	} else {
		c.err = r
	}
	c.samples++
	c.finishes++
	if finishTime >= p.low-1e-9 && finishTime <= p.high+1e-9 {
		c.within++
	}
}

// Forget drops a query's calibration entries (abort, failure, or any exit
// that should not produce a residual).
func (c *EnsembleCalib) Forget(id int) { delete(c.last, id) }

// Coverage reports the lifetime band-coverage counters: finishes with a
// reported interval, and those whose true finish time fell inside it. Both
// are monotonic, ready for Prometheus counters.
func (c *EnsembleCalib) Coverage() (within, finishes uint64) {
	return c.within, c.finishes
}

// State exports the calibration state for publication.
func (c *EnsembleCalib) State() EnsembleState {
	return EnsembleState{Err: c.err, Samples: c.samples}
}
