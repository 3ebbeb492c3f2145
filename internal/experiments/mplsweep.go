package experiments

import (
	"fmt"
	"math/rand"

	"mqpi/internal/core"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/workload"
)

// MPLSweepConfig configures the §2.3 extension experiment: with a fixed
// batch of queries, a lower multiprogramming limit puts more of them in the
// admission queue — exactly the regime where the queue-aware estimator of
// §2.3 should increasingly dominate the queue-blind one. The paper shows the
// effect at one point (NAQ, MPL 2, one queued query); this sweeps it.
type MPLSweepConfig struct {
	Seed       int64
	Runs       int     // default 5
	NumQueries int     // batch size; default 12
	MaxN       int     // default 30
	ZipfA      float64 // default 1.2
	RateC      float64 // default 100
	Quantum    float64 // default 0.5
	// Workers sets the scheduler's execute-phase worker count
	// (0/1 = inline serial). Results are bit-identical at every setting.
	Workers int
	// MPLs are the admission limits to sweep (default 2, 4, 8, 0=unlimited).
	MPLs []int
	Data workload.DataConfig

	// Parallel caps the worker goroutines used for independent runs:
	// 0 = GOMAXPROCS, 1 = sequential. Output is identical at every setting.
	Parallel int
}

func (c MPLSweepConfig) withDefaults() MPLSweepConfig {
	if c.Runs <= 0 {
		c.Runs = 5
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 12
	}
	if c.MaxN <= 0 {
		c.MaxN = 30
	}
	if c.ZipfA <= 0 {
		c.ZipfA = 1.2
	}
	if c.RateC <= 0 {
		c.RateC = 100
	}
	if c.Quantum <= 0 {
		c.Quantum = 0.5
	}
	if len(c.MPLs) == 0 {
		c.MPLs = []int{2, 4, 8, 0}
	}
	if c.Data.Seed == 0 {
		c.Data.Seed = c.Seed
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
	zipf, err := workload.NewZipf(cfg.ZipfA, cfg.MaxN)
	if err != nil {
		return nil, err
	}
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

	// One pool job per (MPL, run) cell; each job simulates the whole batch on
	// a private dataset and returns the per-query errors in submission order,
	// so aggregation below reproduces the sequential append order exactly.
	type mplCell struct{ eS, eB, eA []float64 }
	cells, err := runIndexed(cfg.Parallel, len(cfg.MPLs)*cfg.Runs, func(j int) (mplCell, error) {
		mpl, r := cfg.MPLs[j/cfg.Runs], j%cfg.Runs
		off := int64(mpl)*6977 + int64(r)*7919
		dsRun, err := workload.SharedCache().HydrateSeeded(cfg.Data, datasetSeed(cfg.Seed, off))
		if err != nil {
			return mplCell{}, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + off))
		srv := sched.New(sched.Config{RateC: cfg.RateC, MPL: mpl, Quantum: cfg.Quantum, Workers: cfg.Workers})
	defer srv.Close()
		var queries []*sched.Query
		for i := 1; i <= cfg.NumQueries; i++ {
			q, err := buildPartQuery(dsRun, srv, i, zipf.Sample(rng), 0)
			if err != nil {
				return mplCell{}, err
			}
			queries = append(queries, q)
			srv.Submit(q)
		}
		running := srv.StateRunning()
		queued := srv.StateQueued()
		single := make(map[int]float64, len(queries))
		for _, q := range srv.Running() {
			single[q.ID] = singleEstimate(srv, q)
		}
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
		srv.RunUntilIdle(1e9)
		var cell mplCell
		for _, q := range queries {
			if q.Status == sched.StatusFailed {
				return mplCell{}, fmt.Errorf("experiments: query %s failed: %w", q.Label, q.Err)
			}
			cell.eS = append(cell.eS, metrics.RelErr(single[q.ID], q.FinishTime))
			cell.eB = append(cell.eB, metrics.RelErr(blind[q.ID], q.FinishTime))
			cell.eA = append(cell.eA, metrics.RelErr(aware[q.ID], q.FinishTime))
		}
		return cell, nil
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
