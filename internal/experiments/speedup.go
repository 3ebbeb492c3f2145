package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/wm"
)

// speedupDefaults are the defaults of the §3.1 policy-comparison experiment
// (RunSpeedup). The paper reports that its workload-management experiments
// behaved like the maintenance one and shows only Figure 11; this experiment
// fills that gap: it compares the multi-query PI's victim choice against the
// heuristics the paper's introduction argues against.
var speedupDefaults = Common{Runs: 10, NumQueries: 8, MaxN: 25, ZipfA: 1.2, RateC: 80, Quantum: 0.5}

// SpeedupPolicy names a victim-selection policy.
type SpeedupPolicy string

const (
	// PolicyMultiPI picks the victim via the §3.1 algorithm over PI states.
	PolicyMultiPI SpeedupPolicy = "multi-query PI (§3.1)"
	// PolicyHeaviestConsumer picks the query that has consumed the most
	// work so far — "a common approach is to choose the victim query to be
	// the heaviest resource consumer", which the paper argues can backfire
	// when that query is about to finish.
	PolicyHeaviestConsumer SpeedupPolicy = "heaviest consumer"
	// PolicyRandom blocks a uniformly random non-target query.
	PolicyRandom SpeedupPolicy = "random victim"
	// PolicyNone is the no-intervention baseline.
	PolicyNone SpeedupPolicy = "no intervention"
)

// SpeedupResult summarizes the policy comparison.
type SpeedupResult struct {
	// Fig: mean speed-up of the target (seconds saved vs no intervention)
	// per policy, x = policy index in Policies order.
	Fig metrics.Figure
	// Policies lists the compared policies; MeanSavings is aligned with it.
	Policies    []SpeedupPolicy
	MeanSavings []float64
	// PredictedVsActual is the mean |predicted−actual| of the §3.1 benefit
	// formula across runs, in seconds.
	PredictedVsActual float64
}

// speedupScenario rebuilds the identical workload for one run. Determinism
// makes policy comparisons exact: each policy replays the same queries with
// the same prework, on the cell's dataset with its rng rewound to rngSeed.
// The shape realizes the paper's motivating trap: query 1 is the heaviest
// resource consumer (most work done) but is about to finish, while query 2
// is equally large and has barely started; the remaining queries are a small
// Zipf mix, and the target sits in the middle.
func speedupScenario(cl *cell, rngSeed int64) (*sched.Server, []*sched.Query, error) {
	cl.rng.Seed(rngSeed)
	batch := []batchQuery{
		{n: cl.MaxN, frac: 0.85 + 0.1*cl.rng.Float64()}, // the trap: heavy consumer, nearly done
		{n: cl.MaxN, frac: 0.05 * cl.rng.Float64()},     // the real victim: heavy and fresh
		{n: cl.MaxN / 2, frac: 0.3 * cl.rng.Float64()},  // the target
	}
	rest, err := cl.zipfBatch(max(0, cl.NumQueries-len(batch)), cl.MaxN/4, 0.8)
	if err != nil {
		return nil, nil, err
	}
	srv := cl.server(sched.Config{})
	queries, err := cl.submit(srv, append(batch, rest...))
	return srv, queries, err
}

// targetPos is the index of the target query in the scenario's batch order.
const targetPos = 2

// RunSpeedup compares victim-selection policies for the single-query
// speed-up problem across Runs deterministic scenarios.
func RunSpeedup(cfg Common) (*SpeedupResult, error) {
	cfg = cfg.withDefaults(speedupDefaults)
	policies := []SpeedupPolicy{PolicyMultiPI, PolicyHeaviestConsumer, PolicyRandom}

	// One cell per run. The four replays of a scenario (baseline + three
	// policies) share the cell's private dataset sequentially.
	type spdCell struct {
		savings []float64 // aligned with policies
		predErr float64   // |predicted − actual| for the PI policy
	}
	seed := func(r int) cellSeed { return cellSeed{off: int64(r) * 65537} }
	cells, err := runCells(cfg, cfg.Runs, seed, func(r int, cl *cell) (spdCell, error) {
		rngSeed := cfg.Seed + seed(r).off
		// Baseline replay: find the target and its unassisted finish time.
		srv, queries, err := speedupScenario(cl, rngSeed)
		if err != nil {
			return spdCell{}, err
		}
		srv.RunUntilIdle(1e9)
		if queries[targetPos].Status != sched.StatusFinished {
			return spdCell{}, fmt.Errorf("experiments: target failed: %v", queries[targetPos].Err)
		}
		baseline := queries[targetPos].FinishTime

		cell := spdCell{savings: make([]float64, 0, len(policies))}
		for _, policy := range policies {
			srv, queries, err := speedupScenario(cl, rngSeed)
			if err != nil {
				return spdCell{}, err
			}
			target := queries[targetPos]
			victimID, predicted, err := pickVictim(policy, srv, target, rngSeed)
			if err != nil {
				return spdCell{}, err
			}
			if err := srv.Block(victimID); err != nil {
				return spdCell{}, err
			}
			for srv.Busy() && target.Status != sched.StatusFinished && target.Status != sched.StatusFailed {
				srv.Tick()
			}
			if target.Status != sched.StatusFinished {
				return spdCell{}, fmt.Errorf("experiments: target did not finish under %s: %v", policy, target.Err)
			}
			saving := baseline - target.FinishTime
			cell.savings = append(cell.savings, saving)
			if policy == PolicyMultiPI {
				cell.predErr = math.Abs(predicted - saving)
			}
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make(map[SpeedupPolicy]float64, len(policies))
	var predErr []float64
	for _, cell := range cells {
		for i, p := range policies {
			sums[p] += cell.savings[i]
		}
		predErr = append(predErr, cell.predErr)
	}

	res := &SpeedupResult{
		Fig: metrics.Figure{
			Title:  "Extension: victim-selection policies — mean target speed-up (s)",
			XLabel: "policy#",
			YLabel: "seconds saved vs no intervention",
		},
		Policies:          policies,
		PredictedVsActual: metrics.Mean(predErr),
	}
	s := res.Fig.AddSeries("mean saving")
	for i, p := range policies {
		mean := sums[p] / float64(cfg.Runs)
		res.MeanSavings = append(res.MeanSavings, mean)
		s.Add(float64(i+1), mean)
	}
	return res, nil
}

func (r *SpeedupResult) report() *Report {
	rep := new(Report).text("== Extension: §3.1 victim-selection policies ==\n")
	for i, p := range r.Policies {
		rep.text("  %-28s mean target speed-up %6.1fs\n", p, r.MeanSavings[i])
	}
	return rep.text("  §3.1 benefit formula |predicted-actual| = %.1fs on average\n", r.PredictedVsActual)
}

// pickVictim applies one policy to the time-0 state and returns the chosen
// victim and (for the PI policy) the predicted benefit.
func pickVictim(policy SpeedupPolicy, srv *sched.Server, target *sched.Query, seed int64) (int, float64, error) {
	running := srv.Running()
	switch policy {
	case PolicyMultiPI:
		victims, err := wm.SpeedUpSingle(srv.StateRunning(), srv.RateC(), target.ID, 1)
		if err != nil {
			return 0, 0, err
		}
		return victims[0].ID, victims[0].Benefit, nil
	case PolicyHeaviestConsumer:
		best, bestWork := -1, -1.0
		for _, q := range running {
			if q.ID == target.ID {
				continue
			}
			if w := q.Runner.WorkDone(); w > bestWork {
				best, bestWork = q.ID, w
			}
		}
		return best, 0, nil
	case PolicyRandom:
		rng := rand.New(rand.NewSource(seed ^ 0x51ED270))
		candidates := make([]int, 0, len(running)-1)
		for _, q := range running {
			if q.ID != target.ID {
				candidates = append(candidates, q.ID)
			}
		}
		return candidates[rng.Intn(len(candidates))], 0, nil
	default:
		return 0, 0, fmt.Errorf("experiments: unknown policy %q", policy)
	}
}
