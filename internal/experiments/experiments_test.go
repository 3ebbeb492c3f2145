package experiments

import (
	"math"
	"testing"

	"mqpi/internal/workload"
)

// smallData is a scaled-down dataset config shared by the experiment tests.
var smallData = workload.DataConfig{LineitemRows: 30000, Seed: 5}

func TestRunDataset(t *testing.T) {
	res, err := RunDataset(DatasetConfig{Common: Common{Seed: 5, Data: smallData}, PartSizes: []int{10, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Rows[0].Relation != "lineitem" || res.Rows[0].Tuples != 30000 {
		t.Errorf("lineitem row: %+v", res.Rows[0])
	}
	if res.Rows[1].Tuples != 100 || res.Rows[2].Tuples != 50 {
		t.Errorf("part rows: %+v", res.Rows[1:])
	}
	for _, r := range res.Rows[1:] {
		if r.AvgMatch < 20 || r.AvgMatch > 40 {
			t.Errorf("%s avg matches = %g, want ~30", r.Relation, r.AvgMatch)
		}
	}
	out := res.Render()
	if len(out) == 0 {
		t.Error("empty render")
	}
}

func TestRunMCQShape(t *testing.T) {
	res, err := RunMCQ(MCQConfig{Common: Common{Seed: 5, NumQueries: 6, MaxN: 40, SampleEvery: 10, Data: smallData}})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: the multi-query estimate at time 0 is far more
	// accurate than the single-query estimate, which grossly overestimates.
	if res.ErrStartMulti >= res.ErrStartSingle {
		t.Errorf("multi %g should beat single %g at time 0", res.ErrStartMulti, res.ErrStartSingle)
	}
	if res.ErrStartMulti > 0.5 {
		t.Errorf("multi-query error at time 0 = %g, want small", res.ErrStartMulti)
	}
	// The focus query's speed must grow as peers finish.
	if res.SpeedRatio <= 1.5 {
		t.Errorf("speed ratio = %g, want substantial growth", res.SpeedRatio)
	}
	if res.FinishTime <= 0 {
		t.Error("no finish time")
	}
	if len(res.Fig3.Series) != 3 || len(res.Fig4.Series) != 1 {
		t.Errorf("figure series: %d, %d", len(res.Fig3.Series), len(res.Fig4.Series))
	}
	for _, s := range res.Fig3.Series {
		if len(s.Pts) < 2 {
			t.Errorf("series %s has %d points", s.Name, len(s.Pts))
		}
	}
}

func TestRunNAQShape(t *testing.T) {
	res, err := RunNAQ(NAQConfig{Common: Common{Seed: 5, SampleEvery: 10, Data: smallData}})
	if err != nil {
		t.Fatal(err)
	}
	// Event ordering: Q2 < Q3 < Q1 finishes.
	if !(res.Q2Finish < res.Q3Finish && res.Q3Finish < res.Q1Finish) {
		t.Errorf("event order: q2=%g q3=%g q1=%g", res.Q2Finish, res.Q3Finish, res.Q1Finish)
	}
	// The queue-aware estimator dominates at time 0.
	if res.ErrStartQueue >= res.ErrStartNoQueue || res.ErrStartQueue >= res.ErrStartSingle {
		t.Errorf("queue-aware %g should beat no-queue %g and single %g",
			res.ErrStartQueue, res.ErrStartNoQueue, res.ErrStartSingle)
	}
	if res.ErrStartQueue > 0.25 {
		t.Errorf("queue-aware error = %g, want near-exact", res.ErrStartQueue)
	}
	if len(res.Fig5.Series) != 4 {
		t.Errorf("figure series: %d", len(res.Fig5.Series))
	}
}

func TestRunSCQShape(t *testing.T) {
	cfg := SCQConfig{Common: Common{Seed: 5, Runs: 4, Data: smallData}, Lambdas: []float64{0, 0.05}}
	res, err := RunSCQ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CBar <= 0 || res.StabilityLambda <= 0 {
		t.Errorf("calibration: c̄=%g λ*=%g", res.CBar, res.StabilityLambda)
	}
	// At λ=0 (stable, no arrivals) the multi-query estimate must be much
	// more accurate for the last-finishing query.
	s0 := res.Fig6.Series[0].YAt(0)
	m0 := res.Fig6.Series[1].YAt(0)
	if math.IsNaN(s0) || math.IsNaN(m0) || m0 >= s0 {
		t.Errorf("λ=0 last query: single %g vs multi %g", s0, m0)
	}
	// Average errors too.
	s0a := res.Fig7.Series[0].YAt(0)
	m0a := res.Fig7.Series[1].YAt(0)
	if m0a >= s0a {
		t.Errorf("λ=0 average: single %g vs multi %g", s0a, m0a)
	}
}

func TestRunSCQLambdaErrShape(t *testing.T) {
	cfg := SCQConfig{
		Common:       Common{Seed: 5, Runs: 3, Data: smallData},
		FixedLambda:  0.03,
		LambdaPrimes: []float64{0, 0.03, 0.2},
	}
	res, err := RunSCQLambdaErr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The single-query series is flat across λ'.
	s := res.Fig9.Series[0]
	if len(s.Pts) != 3 || s.Pts[0].Y != s.Pts[1].Y || s.Pts[1].Y != s.Pts[2].Y {
		t.Errorf("single series should be constant: %+v", s.Pts)
	}
	// The multi-query error at the true λ must not exceed the error at a
	// wildly wrong λ'.
	m := res.Fig9.Series[1]
	atTrue := m.YAt(0.03)
	atWrong := m.YAt(0.2)
	if atTrue > atWrong {
		t.Errorf("error at true λ (%g) exceeds error at λ'=0.2 (%g)", atTrue, atWrong)
	}
	// Estimates stay finite even for assumed-unstable λ'.
	if math.IsInf(atWrong, 1) || math.IsNaN(atWrong) {
		t.Errorf("λ'=0.2 error = %g", atWrong)
	}
}

func TestRunSCQTrajectoryShape(t *testing.T) {
	cfg := SCQConfig{Common: Common{Seed: 5, SampleEvery: 10, Data: smallData}}
	res, err := RunSCQTrajectory(cfg, []float64{0.04, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fig10.Series) != 3 { // actual + two λ'
		t.Fatalf("series: %d", len(res.Fig10.Series))
	}
	if res.FocusFinish <= 0 {
		t.Error("no focus finish")
	}
	// Adaptivity: the estimate's error shrinks from the first to the last
	// sample as the PI corrects itself.
	actual := res.Fig10.Series[0]
	for _, s := range res.Fig10.Series[1:] {
		if len(s.Pts) < 2 {
			t.Fatalf("series %s: %d points", s.Name, len(s.Pts))
		}
		first := s.Pts[0]
		last := s.Pts[len(s.Pts)-1]
		firstErr := math.Abs(first.Y - actual.YAt(first.X))
		lastErr := math.Abs(last.Y - actual.YAt(last.X))
		if lastErr > firstErr {
			t.Errorf("%s: error grew from %g to %g", s.Name, firstErr, lastErr)
		}
	}
}

func TestRunMaintenanceShape(t *testing.T) {
	cfg := MaintenanceConfig{
		Common:         Common{Seed: 5, Runs: 3, Data: smallData},
		WarmupFinishes: 12,
		TFracs:         []float64{0.2, 0.5, 1.0},
	}
	res, err := RunMaintenance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fig11.Series) != 4 {
		t.Fatalf("series: %d", len(res.Fig11.Series))
	}
	noPI, single, multi, limit := res.Fig11.Series[0], res.Fig11.Series[1], res.Fig11.Series[2], res.Fig11.Series[3]
	for _, frac := range cfg.TFracs {
		l := limit.YAt(frac)
		m := multi.YAt(frac)
		// The theoretical limit lower-bounds every method.
		for _, s := range []float64{noPI.YAt(frac), single.YAt(frac), m} {
			if s < l-1e-9 {
				t.Errorf("t=%g: method UW %g below limit %g", frac, s, l)
			}
		}
		// UW/TW is a fraction.
		if m < 0 || m > 1 {
			t.Errorf("t=%g: multi UW/TW = %g", frac, m)
		}
	}
	// At t = tfinish the no-PI method loses nothing, the single-PI method
	// loses a lot (the paper's 67% effect).
	if noPI.YAt(1.0) != 0 {
		t.Errorf("no-PI at tfinish = %g, want 0", noPI.YAt(1.0))
	}
	if single.YAt(1.0) < 0.2 {
		t.Errorf("single-PI at tfinish = %g, want large (paper: 0.67)", single.YAt(1.0))
	}
	// Multi beats single on average for t < tfinish.
	if res.MultiVsSingle <= 0 {
		t.Errorf("multi-PI should beat single-PI on average: %g", res.MultiVsSingle)
	}
}

func TestCostModelFitIsLinear(t *testing.T) {
	ds, err := workload.BuildDataset(smallData)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := fitCostModel(ds)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Slope <= 0 {
		t.Fatalf("slope = %g", cm.Slope)
	}
	// The fit must predict the planner's cost for an intermediate size
	// within a few percent (cost is linear in N by construction).
	if err := ds.CreatePartTable(500, 8); err != nil {
		t.Fatal(err)
	}
	p, err := ds.DB.Plan(workload.QuerySQL(500))
	if err != nil {
		t.Fatal(err)
	}
	got := cm.Cost(8)
	want := p.EstCost()
	if math.Abs(got-want) > 0.1*want {
		t.Errorf("cost model at N=8: fit %g vs plan %g", got, want)
	}
}

// TestRefinementBeatsOptimizerOnStaleStats demonstrates why the refined
// remaining-cost estimate exists: when optimizer statistics go stale (here
// the lineitem relation doubles after ANALYZE), the optimizer-only remaining
// cost collapses to zero mid-query while the refined estimate tracks the
// truth.
func TestRefinementBeatsOptimizerOnStaleStats(t *testing.T) {
	ds, err := workload.BuildDataset(workload.DataConfig{LineitemRows: 20000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.CreatePartTable(1, 10); err != nil {
		t.Fatal(err)
	}
	// Double lineitem behind the optimizer's back: every probe now returns
	// ~2× the rows the plan expects.
	cat := ds.DB.Catalog()
	li, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	maxKey := ds.MaxPartKey
	n := li.Rel.NumRows()
	for i := 0; i < n; i++ {
		row := li.Rel.Page(i / 64)[i%64]
		if err := cat.Insert("lineitem", row.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	_ = maxKey

	// True total cost, from an uninstrumented full run.
	ref, err := ds.DB.Prepare(workload.QuerySQL(1))
	if err != nil {
		t.Fatal(err)
	}
	ref.CollectRows = false
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	total := ref.WorkDone()

	r, err := ds.DB.Prepare(workload.QuerySQL(1))
	if err != nil {
		t.Fatal(err)
	}
	r.CollectRows = false
	for r.WorkDone() < total*0.6 {
		if _, done, err := r.Step(50); err != nil || done {
			t.Fatalf("done=%v err=%v before 60%% of the work", done, err)
		}
	}
	trueRem := total - r.WorkDone()
	refined := r.EstRemaining()
	optOnly := r.EstRemainingOptimizer()
	refErr := math.Abs(refined-trueRem) / trueRem
	optErr := math.Abs(optOnly-trueRem) / trueRem
	if refErr >= optErr {
		t.Errorf("refined err %.2f should beat optimizer-only err %.2f (true rem %g, refined %g, opt %g)",
			refErr, optErr, trueRem, refined, optOnly)
	}
	if refErr > 0.35 {
		t.Errorf("refined estimate too far off: %g vs true %g", refined, trueRem)
	}
}

func TestRunSpeedupPolicyComparison(t *testing.T) {
	res, err := RunSpeedup(Common{Seed: 5, Runs: 4, Data: smallData})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 3 || len(res.MeanSavings) != 3 {
		t.Fatalf("result shape: %+v", res)
	}
	multi, heaviest, random := res.MeanSavings[0], res.MeanSavings[1], res.MeanSavings[2]
	// The paper's point: the PI-guided victim beats the heaviest-consumer
	// heuristic when the heavy consumer is about to finish.
	if multi <= heaviest {
		t.Errorf("multi-PI saving %g should beat heaviest-consumer %g", multi, heaviest)
	}
	if multi <= random {
		t.Errorf("multi-PI saving %g should beat random %g", multi, random)
	}
	if multi <= 0 {
		t.Errorf("blocking the PI victim must help: %g", multi)
	}
	// The §3.1 closed-form benefit must predict the realized saving well.
	if res.PredictedVsActual > 0.25*multi {
		t.Errorf("benefit prediction off by %gs on a %gs saving", res.PredictedVsActual, multi)
	}
}

func TestRunPriorityAssumption3(t *testing.T) {
	res, err := RunPriority(PriorityConfig{Common: Common{Seed: 5, Data: smallData}})
	if err != nil {
		t.Fatal(err)
	}
	// Assumption 3: speed ratio ≈ weight ratio (3).
	if res.SpeedRatio < 2.4 || res.SpeedRatio > 3.6 {
		t.Errorf("speed ratio = %g, want ~3", res.SpeedRatio)
	}
	// The weighted stage model stays accurate; the single-query PI does not.
	if res.ErrT0Multi >= res.ErrT0Single {
		t.Errorf("multi %g should beat single %g", res.ErrT0Multi, res.ErrT0Single)
	}
	if res.ErrT0Multi > 0.25 {
		t.Errorf("weighted multi-query error = %g, want small", res.ErrT0Multi)
	}
}

func TestRunRobustnessAssumption1(t *testing.T) {
	res, err := RunRobustness(RobustnessConfig{Common: Common{Seed: 5, Runs: 4, Data: smallData}})
	if err != nil {
		t.Fatal(err)
	}
	// §4.1: even with the constant-rate assumption violated, the multi-query
	// PI remains superior to the single-query PI.
	if res.ErrMulti >= res.ErrSingle {
		t.Errorf("multi %g should stay below single %g under contention", res.ErrMulti, res.ErrSingle)
	}
	// But it must be visibly degraded vs the assumption-satisfied case
	// (sanity: contention really bites).
	clean, err := RunMCQAblation(MCQConfig{Common: Common{Seed: 5, MaxN: 40, Data: smallData}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrMulti <= clean.MeanMultiErr {
		t.Logf("note: contention error %g vs clean %g", res.ErrMulti, clean.MeanMultiErr)
	}
}

// TestMixedTemplatesStillFavorMultiPI reproduces the paper's "we repeated
// our experiments with other kinds of queries; the results were similar":
// with three different query families in the mix, the multi-query PI still
// dominates the single-query PI at time 0.
func TestMixedTemplatesStillFavorMultiPI(t *testing.T) {
	res, err := RunMCQ(MCQConfig{
		Common: Common{Seed: 5, NumQueries: 6, MaxN: 40, SampleEvery: 10, Data: smallData},
		Templates: []workload.QueryTemplate{
			workload.TemplateRetail, workload.TemplateMaxPrice, workload.TemplateGroupCount,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrStartMulti >= res.ErrStartSingle {
		t.Errorf("mixed templates: multi %g should beat single %g", res.ErrStartMulti, res.ErrStartSingle)
	}
	if res.ErrStartMulti > 0.5 {
		t.Errorf("mixed templates: multi error %g too large", res.ErrStartMulti)
	}
}

// TestTemplateVariantsRunAndCost checks every template parses, plans with an
// index-probe-dominated cost, and runs.
func TestTemplateVariantsRunAndCost(t *testing.T) {
	ds, err := workload.BuildDataset(smallData)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.CreatePartTable(1, 10); err != nil {
		t.Fatal(err)
	}
	for _, tmpl := range []workload.QueryTemplate{
		workload.TemplateRetail, workload.TemplateMaxPrice, workload.TemplateGroupCount,
	} {
		src := workload.QuerySQLVariant(1, tmpl)
		p, err := ds.DB.Plan(src)
		if err != nil {
			t.Fatalf("%s: %v", tmpl, err)
		}
		// 100 part rows × ~34 U per probe dominates.
		if p.EstCost() < 1000 {
			t.Errorf("%s: cost %g suspiciously small", tmpl, p.EstCost())
		}
		if _, _, work, err := ds.DB.Query(src); err != nil || work <= 0 {
			t.Errorf("%s: run failed: work=%g err=%v", tmpl, work, err)
		}
	}
}

// TestExperimentDeterminism: the same seed must reproduce every figure
// bit-for-bit — the property DESIGN.md promises.
func TestExperimentDeterminism(t *testing.T) {
	runAll := func() string {
		var out string
		mcq, err := RunMCQ(MCQConfig{
			Common: Common{Seed: 9, NumQueries: 5, MaxN: 30, SampleEvery: 10, Data: workload.DataConfig{LineitemRows: 30000, Seed: 9}},
		})
		if err != nil {
			t.Fatal(err)
		}
		out += mcq.Fig3.Render() + mcq.Fig4.Render()
		naq, err := RunNAQ(NAQConfig{Common: Common{Seed: 9, SampleEvery: 20, Data: workload.DataConfig{LineitemRows: 30000, Seed: 9}}})
		if err != nil {
			t.Fatal(err)
		}
		out += naq.Fig5.Render()
		m, err := RunMaintenance(MaintenanceConfig{
			Common:         Common{Seed: 9, Runs: 2, Data: workload.DataConfig{LineitemRows: 30000, Seed: 9}},
			WarmupFinishes: 8,
			TFracs:         []float64{0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		out += m.Fig11.Render()
		return out
	}
	a := runAll()
	b := runAll()
	if a != b {
		t.Error("experiments are not deterministic for a fixed seed")
	}
	if len(a) < 200 {
		t.Errorf("suspiciously short output: %d bytes", len(a))
	}
}

// TestRunMaintenanceCase1 exercises §3.3's Case 1 (lost work = completed
// work of aborted queries): the multi-PI method must still dominate, and at
// t=tfinish the no-PI method still loses nothing.
func TestRunMaintenanceCase1(t *testing.T) {
	res, err := RunMaintenance(MaintenanceConfig{
		Common:         Common{Seed: 5, Runs: 3, Data: smallData},
		WarmupFinishes: 12,
		Case1:          true,
		TFracs:         []float64{0.3, 0.7, 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	noPI, single, multi, limit := res.Fig11.Series[0], res.Fig11.Series[1], res.Fig11.Series[2], res.Fig11.Series[3]
	if noPI.YAt(1.0) != 0 {
		t.Errorf("no-PI at tfinish = %g", noPI.YAt(1.0))
	}
	if res.MultiVsSingle <= 0 {
		t.Errorf("multi should beat single in Case 1 too: %g", res.MultiVsSingle)
	}
	for _, frac := range []float64{0.3, 0.7} {
		if multi.YAt(frac) < limit.YAt(frac)-1e-9 {
			t.Errorf("t=%g: multi %g below limit %g", frac, multi.YAt(frac), limit.YAt(frac))
		}
		// Case 1 losses are bounded by Case 2 losses (completed ≤ total).
		if multi.YAt(frac) > 1 {
			t.Errorf("t=%g: UW/TW %g out of range", frac, multi.YAt(frac))
		}
	}
	_ = single
}

// TestRunMPLSweep: the §2.3 queue-aware estimator must dominate the
// queue-blind one whenever an admission queue exists, and the two must
// coincide with no admission limit.
func TestRunMPLSweep(t *testing.T) {
	res, err := RunMPLSweep(MPLSweepConfig{Common: Common{Seed: 5, Runs: 2, Data: smallData}, MPLs: []int{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	blind, aware := res.Fig.Series[1], res.Fig.Series[2]
	if aware.YAt(2) >= blind.YAt(2) {
		t.Errorf("MPL 2: aware %g should beat blind %g", aware.YAt(2), blind.YAt(2))
	}
	if aware.YAt(2) > 0.2 {
		t.Errorf("MPL 2: queue-aware error %g should be small", aware.YAt(2))
	}
	// Unlimited MPL: no queue, the estimators coincide.
	if d := aware.YAt(0) - blind.YAt(0); d > 1e-9 || d < -1e-9 {
		t.Errorf("MPL 0: estimators should coincide, delta %g", d)
	}
}
