package sim

import (
	"fmt"
	"testing"

	"mqpi/internal/core"
)

// TestSimEstimatorMatrix is the estimator-plane gate. For every seed, an
// explicit `Estimator: "stage"` run must be byte-identical to the
// default-config baseline and stay byte-identical at workers 1, 2, and 4; and
// a calibrated run, at workers 1 and 4 with identical traces, must hold every
// invariant — the exactness ones (I6, I7, I14) included — on exactly as many
// checks as the stage run: the calibrated plane serves the same points and
// only widens the band (I13).
func TestSimEstimatorMatrix(t *testing.T) {
	var total tally
	t.Cleanup(func() { total.assertExercised(t) })
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			base, err := Run(Config{Seed: seed})
			if err != nil {
				t.Fatalf("default: %v", err)
			}
			for _, v := range base.Violations {
				t.Errorf("default: %s", v)
			}
			stage := runAcrossWorkers(t, Config{Seed: seed, Estimator: core.EstimatorStage})
			total.add(stage)
			if stage.Trace != base.Trace {
				t.Errorf("stage trace differs from default baseline: %s", firstDiff(base.Trace, stage.Trace))
			}
			var first *Result
			for _, w := range []int{1, 4} {
				cal, err := Run(Config{Seed: seed, Estimator: core.EstimatorCalibrated, Workers: w})
				if err != nil {
					t.Fatalf("calibrated workers=%d: %v", w, err)
				}
				for _, v := range cal.Violations {
					t.Errorf("calibrated workers=%d: %s", w, v)
				}
				if cal.ExactChecked != stage.ExactChecked || cal.OracleChecked != stage.OracleChecked {
					t.Errorf("calibrated workers=%d checked exactness %d and the oracle %d times, stage %d and %d",
						w, cal.ExactChecked, cal.OracleChecked, stage.ExactChecked, stage.OracleChecked)
				}
				if first == nil {
					first = cal
				} else if cal.Trace != first.Trace {
					t.Errorf("calibrated workers=%d trace differs from workers=1: %s", w, firstDiff(first.Trace, cal.Trace))
				}
			}
		})
	}
}

// TestSimEnsembleMode runs the calibrated estimate plane under shared-scan
// folding, which TestSimEstimatorMatrix's cells leave off: every invariant
// must hold and the run must stay byte-deterministic across worker counts,
// bands and all.
func TestSimEnsembleMode(t *testing.T) {
	t.Parallel()
	runAcrossWorkers(t, Config{Seed: 5, Estimator: core.EstimatorCalibrated, Fold: true})
}

// TestSimRejectsBadEstimator pins the config validation path: an unknown
// estimator mode is a harness error, reported before any engine work.
func TestSimRejectsBadEstimator(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{Seed: 1, Estimator: "oracle"}); err == nil {
		t.Fatal("Run accepted estimator \"oracle\"")
	}
}
