package experiments

import (
	"fmt"

	"mqpi/internal/metrics"
	"mqpi/internal/sched"
)

// RobustnessConfig configures the Assumption 1 violation experiment (§4.1).
// The real server's total rate varies with the number of runnable queries —
// Contention > 0 models thrashing (more queries, less total throughput),
// Contention < 0 models under-utilization at low concurrency — while both
// PIs keep assuming the constant nominal rate C. The paper argues the
// multi-query PI "is still likely to be superior" when the assumption
// breaks; this experiment measures it.
type RobustnessConfig struct {
	Common // defaults: 8 runs of 10 queries, MaxN 40, Zipf a 1.2, nominal C = 150, quantum 0.5
	// Contention is the per-extra-query throughput penalty: with n runnable
	// queries the actual rate is C × (1 − Contention × (n−1)/n). Default 0.3
	// (30% total slowdown at high concurrency).
	Contention float64
}

func (c RobustnessConfig) withDefaults() RobustnessConfig {
	c.Common = c.Common.withDefaults(Common{Runs: 8, NumQueries: 10, MaxN: 40, ZipfA: 1.2, RateC: 150, Quantum: 0.5})
	if c.Contention == 0 {
		c.Contention = 0.3
	}
	return c
}

// RobustnessResult reports mean time-0 estimate errors under the violated
// assumption.
type RobustnessResult struct {
	ErrSingle float64
	ErrMulti  float64
	// Fig compares the two estimators' mean error across runs (x = run).
	Fig metrics.Figure
}

// RunRobustness measures both PIs' time-0 estimate errors over Runs
// workloads executed on a server whose true rate deviates from the assumed
// constant C.
func RunRobustness(cfg RobustnessConfig) (*RobustnessResult, error) {
	cfg = cfg.withDefaults()
	res := &RobustnessResult{
		Fig: metrics.Figure{
			Title:  fmt.Sprintf("Extension: Assumption 1 violated (contention=%.2f) — mean time-0 error per run", cfg.Contention),
			XLabel: "run",
			YLabel: "relative error (fraction)",
		},
	}
	singleSeries := res.Fig.AddSeries("single-query estimate")
	multiSeries := res.Fig.AddSeries("multi-query estimate")
	var allS, allM []float64

	// One cell per run; per-run means are folded into the figure and the
	// overall averages in run order afterwards.
	type robCell struct{ ms, mm float64 }
	seed := func(r int) cellSeed { return cellSeed{off: 31337 + int64(r)*104729} }
	cells, err := runCells(cfg.Common, cfg.Runs, seed, func(r int, cl *cell) (robCell, error) {
		rateFunc := func(runnable int) float64 {
			if runnable < 1 {
				runnable = 1
			}
			return cfg.RateC * (1 - cfg.Contention*float64(runnable-1)/float64(runnable))
		}
		batch, err := cl.zipfBatch(cfg.NumQueries, cfg.MaxN, 0.9)
		if err != nil {
			return robCell{}, err
		}
		srv := cl.server(sched.Config{RateFunc: rateFunc})
		queries, err := cl.submit(srv, batch)
		if err != nil {
			return robCell{}, err
		}
		single := singleEstimates(srv, queries)
		multi := multiEstimates(srv)
		if err := finishAll(srv, queries); err != nil {
			return robCell{}, err
		}
		return robCell{ms: metrics.Mean(time0Errs(queries, single)), mm: metrics.Mean(time0Errs(queries, multi))}, nil
	})
	if err != nil {
		return nil, err
	}
	for r, cell := range cells {
		singleSeries.Add(float64(r+1), cell.ms)
		multiSeries.Add(float64(r+1), cell.mm)
		allS = append(allS, cell.ms)
		allM = append(allM, cell.mm)
	}
	res.ErrSingle = metrics.Mean(allS)
	res.ErrMulti = metrics.Mean(allM)
	return res, nil
}

func (r *RobustnessResult) report() *Report {
	return new(Report).
		text("== Extension: Assumption 1 violated (rate varies with load) ==\n").
		text("mean time-0 relative error: single %.0f%%, multi %.0f%%\n", r.ErrSingle*100, r.ErrMulti*100).
		text("(the PI still assumes the constant nominal C; §4.1 predicts multi stays superior)\n").
		figure("robustness", &r.Fig)
}
