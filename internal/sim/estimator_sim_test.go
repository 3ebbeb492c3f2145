package sim

import (
	"fmt"
	"testing"

	"mqpi/internal/core"
)

// TestSimEstimatorMatrix is the estimator-plane transparency gate (I13,
// cross-run form): for every seed, an explicit `Estimator: "stage"` run must
// be byte-identical to the default-config baseline — the pluggable estimate
// plane may not change a single traced observable until a non-stage mode is
// opted into — and must stay byte-identical at workers 1, 2, and 4 (the
// per-action I6/I13/I14 checks run inside every one of these cells).
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
		})
	}
}

// TestSimEnsembleMode smoke-tests a non-stage estimate plane under the full
// randomized workload: the structural invariants (work conservation, MPL,
// epochs, metrics, lifecycle, fold, incremental profile) must all still hold
// — only the estimate-exactness checks (I6, I7, I13, I14) are out of scope for
// blended points — and the run must stay byte-deterministic across worker
// counts, bands and all.
func TestSimEnsembleMode(t *testing.T) {
	t.Parallel()
	runAcrossWorkers(t, Config{Seed: 5, Estimator: core.EstimatorEnsemble})
}

// TestSimRejectsBadEstimator pins the config validation path: an unknown
// estimator mode is a harness error, reported before any engine work.
func TestSimRejectsBadEstimator(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{Seed: 1, Estimator: "oracle"}); err == nil {
		t.Fatal("Run accepted estimator \"oracle\"")
	}
}
