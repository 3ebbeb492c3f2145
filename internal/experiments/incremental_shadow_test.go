package experiments

import (
	"fmt"
	"math"
	"testing"

	"mqpi/internal/core"
)

// TestSweepsIncrementalProfileIdentity replays the paper's sweeps with the
// incremental shadow checker installed: every §2.2 closed-form evaluation any
// sweep performs also patches one run-long core.IncrementalProfile, and its
// materialized profile must be bit-identical (stage order, stage durations,
// finish times) to core.ComputeProfile built from scratch on the same states.
// The sweeps thus become a realistic corpus — staggered finishes, priority
// mixes, maintenance aborts, MPL churn — for the incremental structure, on
// top of the randomized differential tests in internal/core.
func TestSweepsIncrementalProfileIdentity(t *testing.T) {
	prof := core.NewIncrementalProfile()
	var out core.Profile
	checks := 0
	var firstDiff string
	incrementalShadow = func(states []core.QueryState, C float64) {
		checks++
		prof.Sync(states)
		prof.ProfileInto(C, &out)
		want := core.ComputeProfile(states, C)
		if firstDiff != "" {
			return
		}
		if len(out.Order) != len(want.Order) {
			firstDiff = fmt.Sprintf("check %d: %d stages, want %d", checks, len(out.Order), len(want.Order))
			return
		}
		for i, id := range want.Order {
			if out.Order[i] != id || math.Float64bits(out.StageDur[i]) != math.Float64bits(want.StageDur[i]) {
				firstDiff = fmt.Sprintf("check %d: stage %d = (q%d, %v), want (q%d, %v)",
					checks, i, out.Order[i], out.StageDur[i], id, want.StageDur[i])
				return
			}
		}
		for id, w := range want.Finish {
			got, ok := out.Finish[id]
			if !ok || (math.Float64bits(got) != math.Float64bits(w) && !(math.IsNaN(got) && math.IsNaN(w))) {
				firstDiff = fmt.Sprintf("check %d: q%d finish %v, want %v", checks, id, got, w)
				return
			}
		}
	}
	defer func() {
		shadowMu.Lock()
		incrementalShadow = nil
		shadowMu.Unlock()
	}()

	sweeps := []struct {
		name string
		run  func() error
	}{
		{"mcq", func() error {
			_, err := RunMCQ(MCQConfig{Common: Common{Seed: 5, NumQueries: 6, MaxN: 40, SampleEvery: 10, Data: smallData}})
			return err
		}},
		{"naq", func() error {
			_, err := RunNAQ(NAQConfig{Common: Common{Seed: 5, SampleEvery: 10, Data: smallData}})
			return err
		}},
		{"scq", func() error {
			_, err := RunSCQ(SCQConfig{Common: Common{Seed: 5, Runs: 2, Data: smallData}, Lambdas: []float64{0, 0.05}})
			return err
		}},
		{"scq-lambda-err", func() error {
			_, err := RunSCQLambdaErr(SCQConfig{
				Common:       Common{Seed: 5, Runs: 2, Data: smallData},
				FixedLambda:  0.03,
				LambdaPrimes: []float64{0, 0.2},
			})
			return err
		}},
		{"scq-trajectory", func() error {
			_, err := RunSCQTrajectory(SCQConfig{Common: Common{Seed: 5, SampleEvery: 10, Data: smallData}}, []float64{0.05})
			return err
		}},
		{"maintenance", func() error {
			_, err := RunMaintenance(MaintenanceConfig{
				Common:         Common{Seed: 5, Runs: 2, Data: smallData},
				WarmupFinishes: 8,
				TFracs:         []float64{0.5},
			})
			return err
		}},
		{"priority", func() error {
			_, err := RunPriority(PriorityConfig{Common: Common{Seed: 5, Data: smallData}})
			return err
		}},
		{"robustness", func() error {
			_, err := RunRobustness(RobustnessConfig{Common: Common{Seed: 5, Data: smallData}})
			return err
		}},
		{"mpl-sweep", func() error {
			_, err := RunMPLSweep(MPLSweepConfig{Common: Common{Seed: 5, Data: smallData}, MPLs: []int{2, 0}})
			return err
		}},
	}
	for _, sw := range sweeps {
		before := checks
		if err := sw.run(); err != nil {
			t.Fatalf("%s: %v", sw.name, err)
		}
		if firstDiff != "" {
			t.Fatalf("%s: incremental profile diverged from ComputeProfile: %s", sw.name, firstDiff)
		}
		if checks == before {
			t.Fatalf("%s: sweep performed no §2.2 evaluations; shadow corpus is vacuous", sw.name)
		}
	}
	t.Logf("incremental profile matched ComputeProfile bit-for-bit on %d sweep evaluations", checks)
}
