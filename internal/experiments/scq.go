package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

// SCQConfig configures the Stream Concurrent Query experiments (§5.2.3,
// Figures 6-10): ten initial queries at random points of execution, with new
// queries arriving as a Poisson process while they run.
type SCQConfig struct {
	Seed       int64
	Runs       int     // runs per data point (paper: 100; default 20)
	NumInitial int     // default 10
	ZipfA      float64 // default 2.2
	MaxN       int     // default 20
	RateC      float64 // default 46 U/s (puts the stability knee λ*=C/c̄ near the paper's 0.07)
	Quantum    float64 // default 1 s
	// Workers sets the scheduler's execute-phase worker count
	// (0/1 = inline serial). Results are bit-identical at every setting.
	Workers int

	// Lambdas is the λ sweep of Figures 6-7.
	Lambdas []float64
	// FixedLambda and LambdaPrimes drive Figures 8-9 (λ' ≠ λ).
	FixedLambda  float64
	LambdaPrimes []float64

	// ArrivalCutoff stops generating new arrivals after this virtual time;
	// it models the finite duration of the paper's real runs and keeps
	// unstable configurations terminating. Default 1500 s.
	ArrivalCutoff float64
	// HardHorizon caps a run's virtual time outright. Default 30000 s.
	HardHorizon float64

	SampleEvery float64 // trajectory sampling period (Figure 10); default 2 s
	Data        workload.DataConfig

	// Parallel caps the worker goroutines used for independent runs:
	// 0 = GOMAXPROCS, 1 = sequential. Output is identical at every setting.
	Parallel int
}

func (c SCQConfig) withDefaults() SCQConfig {
	if c.Runs <= 0 {
		c.Runs = 20
	}
	if c.NumInitial <= 0 {
		c.NumInitial = 10
	}
	if c.ZipfA <= 0 {
		c.ZipfA = 2.2
	}
	if c.MaxN <= 0 {
		c.MaxN = 20
	}
	if c.RateC <= 0 {
		c.RateC = 46 // puts the stability boundary λ* = C/c̄ near the paper's 0.07
	}
	if c.Quantum <= 0 {
		c.Quantum = 1
	}
	if len(c.Lambdas) == 0 {
		c.Lambdas = []float64{0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2}
	}
	if c.FixedLambda <= 0 {
		c.FixedLambda = 0.03
	}
	if len(c.LambdaPrimes) == 0 {
		c.LambdaPrimes = []float64{0, 0.01, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2}
	}
	if c.ArrivalCutoff <= 0 {
		c.ArrivalCutoff = 1500
	}
	if c.HardHorizon <= 0 {
		c.HardHorizon = 30000
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 2
	}
	if c.Data.Seed == 0 {
		c.Data.Seed = c.Seed
	}
	return c
}

// scqRun is the outcome of one SCQ run: per-initial-query actuals and the
// time-0 estimates of each estimator.
type scqRun struct {
	ids    []int
	actual map[int]float64             // actual remaining execution time at time 0
	single map[int]float64             // single-query estimates at time 0
	multi  map[float64]map[int]float64 // λ' -> multi-query estimates at time 0
	lastID int                         // the last-finishing initial query
}

// runSCQOnce performs one SCQ run: build the initial queries, take time-0
// estimates (one multi-query estimate per λ′), then simulate with Poisson(λ)
// arrivals until every initial query finishes.
func runSCQOnce(ds *workload.Dataset, cfg SCQConfig, lambda float64, lambdaPrimes []float64, cbar float64, rng *rand.Rand) (*scqRun, error) {
	zipf, err := workload.NewZipf(cfg.ZipfA, cfg.MaxN)
	if err != nil {
		return nil, err
	}
	srv := sched.New(sched.Config{RateC: cfg.RateC, Quantum: cfg.Quantum, Workers: cfg.Workers})
	defer srv.Close()

	var created []int
	defer func() {
		for _, idx := range created {
			_ = ds.DropPartTable(idx)
		}
	}()

	initial := make([]*sched.Query, 0, cfg.NumInitial)
	for i := 1; i <= cfg.NumInitial; i++ {
		q, err := buildPartQuery(ds, srv, i, zipf.Sample(rng), 0)
		if err != nil {
			return nil, err
		}
		created = append(created, i)
		if err := prework(ds, q, rng, 0.9); err != nil {
			return nil, err
		}
		initial = append(initial, q)
	}
	for _, q := range initial {
		srv.Submit(q)
	}

	run := &scqRun{
		actual: make(map[int]float64, len(initial)),
		single: make(map[int]float64, len(initial)),
		multi:  make(map[float64]map[int]float64, len(lambdaPrimes)),
	}
	for _, q := range initial {
		run.ids = append(run.ids, q.ID)
		run.single[q.ID] = singleEstimate(srv, q)
	}
	states := srv.StateRunning()
	shadowCheck(states, cfg.RateC)
	for _, lp := range lambdaPrimes {
		am := core.ArrivalModel{Lambda: lp, AvgCost: cbar, AvgWeight: 1}
		run.multi[lp] = multiETAs(core.EstimateInput{Running: states, RateC: cfg.RateC, Arrivals: &am})
	}

	// Simulate with dynamically generated arrivals until all initial
	// queries finish.
	poisson := workload.Poisson{Lambda: lambda}
	nextArrival := poisson.NextInterarrival(rng)
	nextIdx := cfg.NumInitial + 1
	remaining := len(initial)
	for _, q := range initial {
		q := q
		srv.OnFinish(func(f *sched.Query) {
			if f == q {
				remaining--
			}
		})
	}
	for remaining > 0 && srv.Now() < cfg.HardHorizon {
		for nextArrival <= srv.Now() && srv.Now() <= cfg.ArrivalCutoff {
			q, err := buildPartQuery(ds, srv, nextIdx, zipf.Sample(rng), 0)
			if err != nil {
				return nil, err
			}
			created = append(created, nextIdx)
			nextIdx++
			srv.Submit(q)
			nextArrival += poisson.NextInterarrival(rng)
		}
		srv.Tick()
	}

	lastFinish := -1.0
	for _, q := range initial {
		if q.Status == sched.StatusFailed {
			return nil, fmt.Errorf("experiments: query %s failed: %w", q.Label, q.Err)
		}
		finish := q.FinishTime
		if q.Status != sched.StatusFinished {
			// Horizon hit (extreme overload): extrapolate the tail at the
			// fair-share rate so the run still yields a (large) actual.
			share := fairShare(srv, q)
			if share <= 0 {
				share = cfg.RateC / float64(len(srv.Running())+1)
			}
			finish = srv.Now() + q.Runner.EstRemaining()/share
		}
		run.actual[q.ID] = finish
		if finish > lastFinish {
			lastFinish = finish
			run.lastID = q.ID
		}
	}
	return run, nil
}

// SCQResult holds Figures 6 and 7.
type SCQResult struct {
	// Fig6: relative error of the time-0 remaining-time estimate for the
	// last-finishing query, vs λ.
	Fig6 metrics.Figure
	// Fig7: same, averaged over all ten initial queries.
	Fig7 metrics.Figure
	// CBar is the fitted average query cost c̄ handed to the multi-query PI.
	CBar float64
	// StabilityLambda is C/c̄, the arrival rate beyond which the system is
	// unstable.
	StabilityLambda float64
}

// RunSCQ reproduces Figures 6 and 7: sweep λ, measure the relative error of
// the single- and multi-query estimates (λ′ = λ: the PI knows the exact
// arrival rate and average cost).
func RunSCQ(cfg SCQConfig) (*SCQResult, error) {
	cfg = cfg.withDefaults()
	ds, err := workload.BuildDataset(cfg.Data)
	if err != nil {
		return nil, err
	}
	cm, err := fitCostModel(ds)
	if err != nil {
		return nil, err
	}
	zipf, err := workload.NewZipf(cfg.ZipfA, cfg.MaxN)
	if err != nil {
		return nil, err
	}
	cbar := cm.Cost(zipf.Mean())

	res := &SCQResult{
		Fig6: metrics.Figure{
			Title:  "Figure 6: relative error of estimated remaining execution time for the last finishing query",
			XLabel: "lambda",
			YLabel: "relative error (fraction)",
		},
		Fig7: metrics.Figure{
			Title:  "Figure 7: average relative error of estimated remaining execution time for all ten queries",
			XLabel: "lambda",
			YLabel: "relative error (fraction)",
		},
		CBar:            cbar,
		StabilityLambda: cfg.RateC / cbar,
	}
	f6single := res.Fig6.AddSeries("single-query estimate")
	f6multi := res.Fig6.AddSeries("multi-query estimate")
	f7single := res.Fig7.AddSeries("single-query estimate")
	f7multi := res.Fig7.AddSeries("multi-query estimate")

	// Fan the (λ, run) grid across the pool. Every job hydrates a private
	// dataset from the shared snapshot, so its part tables depend only on
	// (cfg, li, r) — never on how many runs executed before it — and the
	// figures are identical at every parallelism level. Aggregation below
	// walks the cells in the exact (li, r) order the sequential loop used,
	// preserving float summation order bit for bit.
	type scqCell struct{ es, em errPair }
	cells, err := runIndexed(cfg.Parallel, len(cfg.Lambdas)*cfg.Runs, func(j int) (scqCell, error) {
		li, r := j/cfg.Runs, j%cfg.Runs
		off := int64(li)*100003 + int64(r)*7919
		dsRun, err := workload.SharedCache().HydrateSeeded(cfg.Data, datasetSeed(cfg.Seed, off))
		if err != nil {
			return scqCell{}, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + off))
		run, err := runSCQOnce(dsRun, cfg, cfg.Lambdas[li], []float64{cfg.Lambdas[li]}, cbar, rng)
		if err != nil {
			return scqCell{}, err
		}
		es, em := runErrors(run, cfg.Lambdas[li])
		return scqCell{es: es, em: em}, nil
	})
	if err != nil {
		return nil, err
	}
	for li, lambda := range cfg.Lambdas {
		var lastS, lastM, avgS, avgM []float64
		for r := 0; r < cfg.Runs; r++ {
			c := cells[li*cfg.Runs+r]
			lastS = append(lastS, c.es.last)
			lastM = append(lastM, c.em.last)
			avgS = append(avgS, c.es.avg)
			avgM = append(avgM, c.em.avg)
		}
		f6single.Add(lambda, metrics.Mean(lastS))
		f6multi.Add(lambda, metrics.Mean(lastM))
		f7single.Add(lambda, metrics.Mean(avgS))
		f7multi.Add(lambda, metrics.Mean(avgM))
	}
	return res, nil
}

type errPair struct{ last, avg float64 }

// runErrors computes the paper's two error aggregates for one run: the
// relative error for the last-finishing query and the average over all
// initial queries.
func runErrors(run *scqRun, lambdaPrime float64) (single, multi errPair) {
	var sErrs, mErrs []float64
	m := run.multi[lambdaPrime]
	for _, id := range run.ids {
		actual := run.actual[id]
		sErrs = append(sErrs, metrics.RelErr(run.single[id], actual))
		mErrs = append(mErrs, metrics.RelErr(m[id], actual))
	}
	single = errPair{
		last: metrics.RelErr(run.single[run.lastID], run.actual[run.lastID]),
		avg:  metrics.Mean(sErrs),
	}
	multi = errPair{
		last: metrics.RelErr(m[run.lastID], run.actual[run.lastID]),
		avg:  metrics.Mean(mErrs),
	}
	return single, multi
}

// SCQLambdaErrResult holds Figures 8 and 9.
type SCQLambdaErrResult struct {
	// Fig8: relative error for the last finishing query vs the λ′ the
	// multi-query PI assumed (true λ fixed); the single-query estimate is a
	// flat reference line.
	Fig8 metrics.Figure
	// Fig9: same, averaged over all ten queries.
	Fig9 metrics.Figure
	// Lambda is the true arrival rate.
	Lambda float64
	CBar   float64
}

// RunSCQLambdaErr reproduces Figures 8 and 9: the multi-query PI estimates
// with a wrong arrival rate λ′ while queries actually arrive at λ.
func RunSCQLambdaErr(cfg SCQConfig) (*SCQLambdaErrResult, error) {
	cfg = cfg.withDefaults()
	ds, err := workload.BuildDataset(cfg.Data)
	if err != nil {
		return nil, err
	}
	cm, err := fitCostModel(ds)
	if err != nil {
		return nil, err
	}
	zipf, err := workload.NewZipf(cfg.ZipfA, cfg.MaxN)
	if err != nil {
		return nil, err
	}
	cbar := cm.Cost(zipf.Mean())

	res := &SCQLambdaErrResult{
		Fig8: metrics.Figure{
			Title:  fmt.Sprintf("Figure 8: relative error for the last finishing query (lambda=%.3g, varying lambda')", cfg.FixedLambda),
			XLabel: "lambda' (assumed by multi-query PI)",
			YLabel: "relative error (fraction)",
		},
		Fig9: metrics.Figure{
			Title:  fmt.Sprintf("Figure 9: average relative error for all ten queries (lambda=%.3g, varying lambda')", cfg.FixedLambda),
			XLabel: "lambda' (assumed by multi-query PI)",
			YLabel: "relative error (fraction)",
		},
		Lambda: cfg.FixedLambda,
		CBar:   cbar,
	}
	f8single := res.Fig8.AddSeries("single-query estimate")
	f8multi := res.Fig8.AddSeries("multi-query estimate")
	f9single := res.Fig9.AddSeries("single-query estimate")
	f9multi := res.Fig9.AddSeries("multi-query estimate")

	// One pool job per run; each returns the single-query errors plus the
	// multi-query errors for every λ′, aligned with cfg.LambdaPrimes.
	type lerrCell struct {
		lastS, avgS float64
		multi       []errPair
	}
	cells, err := runIndexed(cfg.Parallel, cfg.Runs, func(r int) (lerrCell, error) {
		off := 424243 + int64(r)*7919
		dsRun, err := workload.SharedCache().HydrateSeeded(cfg.Data, datasetSeed(cfg.Seed, off))
		if err != nil {
			return lerrCell{}, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + off))
		run, err := runSCQOnce(dsRun, cfg, cfg.FixedLambda, cfg.LambdaPrimes, cbar, rng)
		if err != nil {
			return lerrCell{}, err
		}
		// Single-query errors do not depend on λ′.
		var sErrs []float64
		for _, id := range run.ids {
			sErrs = append(sErrs, metrics.RelErr(run.single[id], run.actual[id]))
		}
		cell := lerrCell{
			lastS: metrics.RelErr(run.single[run.lastID], run.actual[run.lastID]),
			avgS:  metrics.Mean(sErrs),
			multi: make([]errPair, 0, len(cfg.LambdaPrimes)),
		}
		for _, lp := range cfg.LambdaPrimes {
			_, em := runErrors(run, lp)
			cell.multi = append(cell.multi, em)
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	lastS := make([]float64, 0, cfg.Runs)
	avgS := make([]float64, 0, cfg.Runs)
	lastM := make(map[float64][]float64, len(cfg.LambdaPrimes))
	avgM := make(map[float64][]float64, len(cfg.LambdaPrimes))
	for _, cell := range cells {
		lastS = append(lastS, cell.lastS)
		avgS = append(avgS, cell.avgS)
		for i, lp := range cfg.LambdaPrimes {
			lastM[lp] = append(lastM[lp], cell.multi[i].last)
			avgM[lp] = append(avgM[lp], cell.multi[i].avg)
		}
	}
	singleLast := metrics.Mean(lastS)
	singleAvg := metrics.Mean(avgS)
	lps := append([]float64(nil), cfg.LambdaPrimes...)
	sort.Float64s(lps)
	for _, lp := range lps {
		f8single.Add(lp, singleLast)
		f8multi.Add(lp, metrics.Mean(lastM[lp]))
		f9single.Add(lp, singleAvg)
		f9multi.Add(lp, metrics.Mean(avgM[lp]))
	}
	return res, nil
}

// SCQTrajectoryResult holds Figure 10.
type SCQTrajectoryResult struct {
	// Fig10: the multi-query estimate for the last-finishing query over
	// time, one series per assumed λ′, plus the actual remaining time.
	Fig10 metrics.Figure
	// FocusFinish is the observed finish time of the tracked query.
	FocusFinish float64
}

// RunSCQTrajectory reproduces Figure 10: a single run with λ =
// cfg.FixedLambda in which the multi-query PI continuously re-estimates the
// last-finishing query's remaining time under wrong λ′ assumptions,
// demonstrating the PI's self-correcting adaptivity.
func RunSCQTrajectory(cfg SCQConfig, lambdaPrimes []float64) (*SCQTrajectoryResult, error) {
	cfg = cfg.withDefaults()
	if len(lambdaPrimes) == 0 {
		lambdaPrimes = []float64{0.04, 0.05}
	}
	ds, err := workload.BuildDataset(cfg.Data)
	if err != nil {
		return nil, err
	}
	cm, err := fitCostModel(ds)
	if err != nil {
		return nil, err
	}
	zipf, err := workload.NewZipf(cfg.ZipfA, cfg.MaxN)
	if err != nil {
		return nil, err
	}
	cbar := cm.Cost(zipf.Mean())
	rng := rand.New(rand.NewSource(cfg.Seed + 777))

	srv := sched.New(sched.Config{RateC: cfg.RateC, Quantum: cfg.Quantum, Workers: cfg.Workers})
	defer srv.Close()
	initial := make([]*sched.Query, 0, cfg.NumInitial)
	for i := 1; i <= cfg.NumInitial; i++ {
		q, err := buildPartQuery(ds, srv, i, zipf.Sample(rng), 0)
		if err != nil {
			return nil, err
		}
		if err := prework(ds, q, rng, 0.9); err != nil {
			return nil, err
		}
		initial = append(initial, q)
	}
	for _, q := range initial {
		srv.Submit(q)
	}

	type sampleRec struct {
		t   float64
		est map[float64]map[int]float64
	}
	var samples []sampleRec

	poisson := workload.Poisson{Lambda: cfg.FixedLambda}
	nextArrival := poisson.NextInterarrival(rng)
	nextIdx := cfg.NumInitial + 1
	remaining := len(initial)
	for _, q := range initial {
		q := q
		srv.OnFinish(func(f *sched.Query) {
			if f == q {
				remaining--
			}
		})
	}
	nextSample := 0.0
	for remaining > 0 && srv.Now() < cfg.HardHorizon {
		for nextArrival <= srv.Now() && srv.Now() <= cfg.ArrivalCutoff {
			q, err := buildPartQuery(ds, srv, nextIdx, zipf.Sample(rng), 0)
			if err != nil {
				return nil, err
			}
			nextIdx++
			srv.Submit(q)
			nextArrival += poisson.NextInterarrival(rng)
		}
		if srv.Now()+1e-9 >= nextSample {
			states := srv.StateRunning()
			shadowCheck(states, cfg.RateC)
			est := make(map[float64]map[int]float64, len(lambdaPrimes))
			for _, lp := range lambdaPrimes {
				am := core.ArrivalModel{Lambda: lp, AvgCost: cbar, AvgWeight: 1}
				est[lp] = multiETAs(core.EstimateInput{Running: states, RateC: cfg.RateC, Arrivals: &am})
			}
			samples = append(samples, sampleRec{t: srv.Now(), est: est})
			nextSample += cfg.SampleEvery
		}
		srv.Tick()
	}

	// Identify the last-finishing initial query.
	var focus *sched.Query
	for _, q := range initial {
		if q.Status == sched.StatusFailed {
			return nil, fmt.Errorf("experiments: query %s failed: %w", q.Label, q.Err)
		}
		if focus == nil || q.FinishTime > focus.FinishTime {
			focus = q
		}
	}
	res := &SCQTrajectoryResult{
		Fig10: metrics.Figure{
			Title:  fmt.Sprintf("Figure 10: remaining time estimated by the multi-query PI over time (lambda=%.3g)", cfg.FixedLambda),
			XLabel: "time (s)",
			YLabel: "estimated remaining query execution time (s)",
		},
		FocusFinish: focus.FinishTime,
	}
	actual := res.Fig10.AddSeries("actual")
	series := make(map[float64]*metrics.Series, len(lambdaPrimes))
	for _, lp := range lambdaPrimes {
		series[lp] = res.Fig10.AddSeries(fmt.Sprintf("lambda'=%.3g", lp))
	}
	for _, s := range samples {
		if s.t > focus.FinishTime {
			break
		}
		actual.Add(s.t, math.Max(0, focus.FinishTime-s.t))
		for _, lp := range lambdaPrimes {
			if est, ok := s.est[lp][focus.ID]; ok {
				series[lp].Add(s.t, est)
			}
		}
	}
	return res, nil
}
