package experiments

import (
	"testing"

	"mqpi/internal/core"
)

// TestRunCalibrationCoverage is the acceptance gate for the ensemble's
// uncertainty bands: pooled across the seven-scenario battery, at least 80%
// of the reported intervals must contain the true finish time at the default
// band width.
func TestRunCalibrationCoverage(t *testing.T) {
	res, err := RunCalibration(CalibrationConfig{Common: Common{Seed: 5, Data: smallData}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 7 {
		t.Fatalf("battery ran %d scenarios, want 7", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		if sc.Samples == 0 {
			t.Errorf("scenario %s scored no intervals", sc.Name)
		}
		t.Logf("%-9s coverage %5.1f%% (%d/%d)", sc.Name, sc.Coverage*100, sc.Within, sc.Samples)
	}
	if res.Coverage < 0.80 {
		t.Errorf("pooled band coverage %.3f < 0.80 (%d/%d intervals)", res.Coverage, res.Within, res.Samples)
	}
	if len(res.Fig.Series) != 1 || len(res.Fig.Series[0].Pts) != 7 {
		t.Errorf("figure shape: %d series", len(res.Fig.Series))
	}
}

// TestRunCalibrationDeterministic pins the harness contract shared by every
// sweep: the scorecard is identical at any parallelism and worker setting.
func TestRunCalibrationDeterministic(t *testing.T) {
	a, err := RunCalibration(CalibrationConfig{Common: Common{Seed: 5, Data: smallData, Parallel: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCalibration(CalibrationConfig{Common: Common{Seed: 5, Data: smallData, Parallel: 4, Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Scenarios) != len(b.Scenarios) {
		t.Fatalf("scenario counts differ: %d vs %d", len(a.Scenarios), len(b.Scenarios))
	}
	for i := range a.Scenarios {
		if a.Scenarios[i] != b.Scenarios[i] {
			t.Errorf("scenario %d differs across parallelism: %+v vs %+v", i, a.Scenarios[i], b.Scenarios[i])
		}
	}
}

// TestRunCalibrationRejectsBadEstimator pins config validation.
func TestRunCalibrationRejectsBadEstimator(t *testing.T) {
	if _, err := RunCalibration(CalibrationConfig{Common: Common{Seed: 1}, Estimator: "oracle"}); err == nil {
		t.Fatal("RunCalibration accepted estimator \"oracle\"")
	}
	if _, err := RunCalibration(CalibrationConfig{Common: Common{Seed: 1, Data: smallData}, Estimator: core.EstimatorStage}); err != nil {
		// Stage mode is pointless (degenerate bands) but must still be legal.
		t.Fatalf("stage mode: %v", err)
	}
}
