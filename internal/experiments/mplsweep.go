package experiments

import (
	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
)

// MPLSweepConfig configures the §2.3 extension experiment: with a fixed
// batch of queries, a lower multiprogramming limit puts more of them in the
// admission queue — exactly the regime where the queue-aware estimator of
// §2.3 should increasingly dominate the queue-blind one. The paper shows the
// effect at one point (NAQ, MPL 2, one queued query); this sweeps it.
type MPLSweepConfig struct {
	Common // defaults: 5 runs of 12 queries, MaxN 30, Zipf a 1.2, C = 100, quantum 0.5
	// MPLs are the admission limits to sweep (default 2, 4, 8, 0=unlimited).
	MPLs []int
}

func (c MPLSweepConfig) withDefaults() MPLSweepConfig {
	c.Common = c.Common.withDefaults(Common{Runs: 5, NumQueries: 12, MaxN: 30, ZipfA: 1.2, RateC: 100, Quantum: 0.5})
	if len(c.MPLs) == 0 {
		c.MPLs = []int{2, 4, 8, 0}
	}
	return c
}

// MPLSweepResult reports mean time-0 estimate errors per MPL for the three
// estimators (single-query, queue-blind multi, queue-aware multi).
type MPLSweepResult struct {
	Fig metrics.Figure
}

// RunMPLSweep submits the same batch of queries under each MPL, takes time-0
// estimates for every query (running or queued), and measures relative
// errors against the actual finish times.
func RunMPLSweep(cfg MPLSweepConfig) (*MPLSweepResult, error) {
	cfg = cfg.withDefaults()
	res := &MPLSweepResult{
		Fig: metrics.Figure{
			Title:  "Extension: admission-queue visibility (§2.3) — mean time-0 error vs MPL",
			XLabel: "MPL (0 = unlimited)",
			YLabel: "relative error (fraction)",
		},
	}
	sSingle := res.Fig.AddSeries("single-query estimate")
	sBlind := res.Fig.AddSeries("multi-query (ignoring admission queue)")
	sAware := res.Fig.AddSeries("multi-query (considering admission queue)")

	// One cell per (MPL, run); each simulates the whole batch and returns the
	// per-query errors in submission order, so aggregation below reproduces
	// the sequential append order exactly.
	type mplCell struct{ eS, eB, eA []float64 }
	seed := func(j int) cellSeed {
		return cellSeed{off: int64(cfg.MPLs[j/cfg.Runs])*6977 + int64(j%cfg.Runs)*7919}
	}
	cells, err := runCells(cfg.Common, len(cfg.MPLs)*cfg.Runs, seed, func(j int, cl *cell) (mplCell, error) {
		mpl := cfg.MPLs[j/cfg.Runs]
		batch, err := cl.zipfBatch(cfg.NumQueries, cfg.MaxN, 0)
		if err != nil {
			return mplCell{}, err
		}
		srv := cl.server(sched.Config{MPL: mpl})
		queries, err := cl.submit(srv, batch)
		if err != nil {
			return mplCell{}, err
		}
		running := srv.StateRunning()
		queued := srv.StateQueued()
		single := singleEstimates(srv, srv.Running())
		// The single-query PI cannot see queued queries at all; it has
		// no estimate for them (scored as the blind-worst: their own
		// cost at full speed, the only thing a per-query estimator
		// could say).
		for _, q := range srv.Queued() {
			single[q.ID] = q.Runner.EstRemaining() / cfg.RateC
		}
		blind := stageEstimates(running, cfg.RateC)
		aware := multiETAs(core.EstimateInput{Running: running, Queued: queued, MPL: mpl, RateC: cfg.RateC})
		// Queue-blind has no prediction for queued queries either; give
		// it the same fallback as the single PI.
		for _, q := range srv.Queued() {
			blind[q.ID] = single[q.ID]
		}
		if err := finishAll(srv, queries); err != nil {
			return mplCell{}, err
		}
		return mplCell{time0Errs(queries, single), time0Errs(queries, blind), time0Errs(queries, aware)}, nil
	})
	if err != nil {
		return nil, err
	}
	for mi, mpl := range cfg.MPLs {
		var eS, eB, eA []float64
		for r := 0; r < cfg.Runs; r++ {
			c := cells[mi*cfg.Runs+r]
			eS = append(eS, c.eS...)
			eB = append(eB, c.eB...)
			eA = append(eA, c.eA...)
		}
		x := float64(mpl)
		sSingle.Add(x, metrics.Mean(eS))
		sBlind.Add(x, metrics.Mean(eB))
		sAware.Add(x, metrics.Mean(eA))
	}
	return res, nil
}

func (r *MPLSweepResult) report() *Report { return new(Report).figure("mpl-sweep", &r.Fig) }
