package experiments

import (
	"fmt"
	"math"
	"sort"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

// SCQConfig configures the Stream Concurrent Query experiments (§5.2.3,
// Figures 6-10): NumQueries initial queries (default ten) at random points
// of execution, with new queries arriving as a Poisson process while they
// run. Defaults: 20 runs per data point (paper: 100), Zipf a 2.2 over
// MaxN 20, quantum 1 s, a trajectory sample (Figure 10) every 2 s, and
// C = 46 U/s, which puts the stability knee λ* = C/c̄ near the paper's 0.07.
type SCQConfig struct {
	Common

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
}

func (c SCQConfig) withDefaults() SCQConfig {
	c.Common = c.Common.withDefaults(Common{Runs: 20, NumQueries: 10, ZipfA: 2.2, MaxN: 20, RateC: 46, Quantum: 1, SampleEvery: 2})
	if len(c.Lambdas) == 0 {
		c.Lambdas = []float64{0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2}
	}
	c.FixedLambda = orDefault(c.FixedLambda, 0.03)
	if len(c.LambdaPrimes) == 0 {
		c.LambdaPrimes = []float64{0, 0.01, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2}
	}
	c.ArrivalCutoff = orDefault(c.ArrivalCutoff, 1500)
	c.HardHorizon = orDefault(c.HardHorizon, 30000)
	return c
}

// scqCBar is the "exact average cost c̄" of future queries the SCQ
// experiments hand the multi-query PI: the cost model fitted on the cell's
// dataset, at the mean of the size distribution.
func scqCBar(cl *cell) (float64, error) {
	cm, err := fitCostModel(cl.ds)
	if err != nil {
		return 0, err
	}
	zipf, err := cl.zipf()
	if err != nil {
		return 0, err
	}
	return cm.Cost(zipf.Mean()), nil
}

// scqStart submits the initial queries, each at a random point of its
// execution.
func scqStart(cl *cell) (*sched.Server, []*sched.Query, error) {
	batch, err := cl.zipfBatch(cl.NumQueries, cl.MaxN, 0.9)
	if err != nil {
		return nil, nil, err
	}
	srv := cl.server(sched.Config{})
	initial, err := cl.submit(srv, batch)
	return srv, initial, err
}

// scqArrivals ticks the server, with dynamically generated Poisson(λ)
// arrivals, until every initial query has finished or the horizon is hit,
// then fails if an initial query failed. beforeTick, when set, runs once per
// quantum after that quantum's arrivals.
func scqArrivals(cl *cell, cfg SCQConfig, srv *sched.Server, initial []*sched.Query, lambda float64, beforeTick func()) error {
	zipf, err := cl.zipf()
	if err != nil {
		return err
	}
	poisson := workload.Poisson{Lambda: lambda}
	nextArrival := poisson.NextInterarrival(cl.rng)
	nextIdx := len(initial) + 1
	remaining := len(initial)
	lastInitial := initial[len(initial)-1].ID
	srv.OnFinish(func(f *sched.Query) {
		if f.ID <= lastInitial {
			remaining--
		}
	})
	for remaining > 0 && srv.Now() < cfg.HardHorizon {
		for nextArrival <= srv.Now() && srv.Now() <= cfg.ArrivalCutoff {
			q, err := buildPartQuery(cl.ds, srv, nextIdx, zipf.Sample(cl.rng), 0, workload.TemplateRetail)
			if err != nil {
				return err
			}
			nextIdx++
			srv.Submit(q)
			nextArrival += poisson.NextInterarrival(cl.rng)
		}
		if beforeTick != nil {
			beforeTick()
		}
		srv.Tick()
	}
	return firstFailed(initial)
}

// arrivalETAs is the multi-query PI's estimate over states under each
// assumed arrival rate λ′ (§2.4), with c̄ as the future queries' cost.
func arrivalETAs(states []core.QueryState, C float64, lambdaPrimes []float64, cbar float64) map[float64]map[int]float64 {
	out := make(map[float64]map[int]float64, len(lambdaPrimes))
	for _, lp := range lambdaPrimes {
		am := core.ArrivalModel{Lambda: lp, AvgCost: cbar, AvgWeight: 1}
		out[lp] = multiETAs(core.EstimateInput{Running: states, RateC: C, Arrivals: &am})
	}
	return out
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
func runSCQOnce(cl *cell, cfg SCQConfig, lambda float64, lambdaPrimes []float64, cbar float64) (*scqRun, error) {
	srv, initial, err := scqStart(cl)
	if err != nil {
		return nil, err
	}
	run := &scqRun{
		actual: make(map[int]float64, len(initial)),
		single: singleEstimates(srv, initial),
		multi:  arrivalETAs(srv.StateRunning(), cfg.RateC, lambdaPrimes, cbar),
	}
	if err := scqArrivals(cl, cfg, srv, initial, lambda, nil); err != nil {
		return nil, err
	}

	lastFinish := -1.0
	for _, q := range initial {
		run.ids = append(run.ids, q.ID)
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
	cbar, err := withCell(cfg.Common, cellSeed{base: true}, scqCBar)
	if err != nil {
		return nil, err
	}

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

	// One cell per (λ, run). Aggregation below walks the cells in the exact
	// (li, r) order the sequential loop used, preserving float summation
	// order bit for bit.
	type scqCell struct{ es, em errPair }
	seed := func(j int) cellSeed {
		return cellSeed{off: int64(j/cfg.Runs)*100003 + int64(j%cfg.Runs)*7919}
	}
	cells, err := runCells(cfg.Common, len(cfg.Lambdas)*cfg.Runs, seed, func(j int, cl *cell) (scqCell, error) {
		lambda := cfg.Lambdas[j/cfg.Runs]
		run, err := runSCQOnce(cl, cfg, lambda, []float64{lambda}, cbar)
		if err != nil {
			return scqCell{}, err
		}
		es, em := runErrors(run, lambda)
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

func (r *SCQResult) report() *Report {
	return new(Report).
		text("SCQ: average future-query cost c̄=%.0fU, stability boundary λ*=C/c̄=%.3f\n\n", r.CBar, r.StabilityLambda).
		figure("figure6", &r.Fig6).text("\n").figure("figure7", &r.Fig7)
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
	cbar, err := withCell(cfg.Common, cellSeed{base: true}, scqCBar)
	if err != nil {
		return nil, err
	}

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

	// One cell per run; each returns the single-query errors plus the
	// multi-query errors for every λ′, aligned with cfg.LambdaPrimes.
	type lerrCell struct {
		single errPair
		multi  []errPair
	}
	seed := func(r int) cellSeed { return cellSeed{off: 424243 + int64(r)*7919} }
	cells, err := runCells(cfg.Common, cfg.Runs, seed, func(_ int, cl *cell) (lerrCell, error) {
		run, err := runSCQOnce(cl, cfg, cfg.FixedLambda, cfg.LambdaPrimes, cbar)
		if err != nil {
			return lerrCell{}, err
		}
		cell := lerrCell{multi: make([]errPair, len(cfg.LambdaPrimes))}
		for i, lp := range cfg.LambdaPrimes {
			// Single-query errors do not depend on λ′.
			cell.single, cell.multi[i] = runErrors(run, lp)
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
		lastS = append(lastS, cell.single.last)
		avgS = append(avgS, cell.single.avg)
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

func (r *SCQLambdaErrResult) report() *Report {
	return new(Report).
		text("SCQ λ′ sensitivity: true λ=%.3g, c̄=%.0fU\n\n", r.Lambda, r.CBar).
		figure("figure8", &r.Fig8).text("\n").figure("figure9", &r.Fig9)
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
	return withCell(cfg.Common, cellSeed{off: 777, base: true}, func(cl *cell) (*SCQTrajectoryResult, error) {
		// The scratch tables of the fit draw from the same dataset stream the
		// run's part tables continue.
		cbar, err := scqCBar(cl)
		if err != nil {
			return nil, err
		}
		srv, initial, err := scqStart(cl)
		if err != nil {
			return nil, err
		}
		type sampleRec struct {
			t   float64
			est map[float64]map[int]float64
		}
		var samples []sampleRec
		nextSample := 0.0
		err = scqArrivals(cl, cfg, srv, initial, cfg.FixedLambda, func() {
			if srv.Now()+1e-9 >= nextSample {
				est := arrivalETAs(srv.StateRunning(), cfg.RateC, lambdaPrimes, cbar)
				samples = append(samples, sampleRec{t: srv.Now(), est: est})
				nextSample += cfg.SampleEvery
			}
		})
		if err != nil {
			return nil, err
		}

		// Identify the last-finishing initial query.
		focus := initial[0]
		for _, q := range initial {
			if q.FinishTime > focus.FinishTime {
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
	})
}

func (r *SCQTrajectoryResult) report() *Report {
	return new(Report).
		text("SCQ trajectory: focus query finishes at %.0fs\n\n", r.FocusFinish).
		figure("figure10", &r.Fig10)
}
