package experiments

import (
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
)

// PriorityConfig configures the weighted-priorities extension experiment.
// The paper's Assumption 3 (speed proportional to priority weight) could not
// be evaluated in its PostgreSQL prototype ("PostgreSQL does not support
// priorities for queries"); this substrate implements the weight table
// directly, so the weighted stage model can be validated end-to-end.
type PriorityConfig struct {
	Common             // defaults: 1 run, MaxN 40, Zipf a 1.2, C = 150, quantum 0.5
	PerClass   int     // queries per priority class; default 4
	LowWeight  float64 // default 1
	HighWeight float64 // default 3
}

func (c PriorityConfig) withDefaults() PriorityConfig {
	c.Common = c.Common.withDefaults(Common{Runs: 1, MaxN: 40, ZipfA: 1.2, RateC: 150, Quantum: 0.5})
	c.PerClass = orDefault(c.PerClass, 4)
	c.LowWeight = orDefault(c.LowWeight, 1)
	c.HighWeight = orDefault(c.HighWeight, 3)
	return c
}

// PriorityResult summarizes the weighted-priorities experiment.
type PriorityResult struct {
	// SpeedRatio is the measured high/low execution-speed ratio for two
	// same-sized probe queries (Assumption 3 predicts HighWeight/LowWeight).
	SpeedRatio float64
	// ErrT0Single and ErrT0Multi are mean relative errors of the time-0
	// remaining-time estimates across all queries.
	ErrT0Single float64
	ErrT0Multi  float64
	// Fig: per-query time-0 estimates vs actual (x = query ID).
	Fig metrics.Figure
}

// RunPriority runs mixed-priority workloads: PerClass queries at low
// priority and PerClass at high priority, plus one same-sized probe pair to
// measure the speed ratio. It reports how well the weighted stage model
// predicts remaining times compared with the single-query PI. With Runs > 1
// the scalar metrics are averaged over independent workloads (fanned across
// the pool); the figure always shows run 0, whose workload is identical to
// the Runs == 1 output.
func RunPriority(cfg PriorityConfig) (*PriorityResult, error) {
	cfg = cfg.withDefaults()
	// Run 0 keeps the historical single-run behaviour exactly: the base
	// dataset (generator rng stream) and the original rng seed.
	seed := func(r int) cellSeed {
		return cellSeed{off: int64(r) * 48611, mask: 0x9E3779B9, base: r == 0}
	}
	results, err := runCells(cfg.Common, cfg.Runs, seed, func(_ int, cl *cell) (*PriorityResult, error) {
		return runPriorityOnce(cl, cfg)
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	if cfg.Runs > 1 {
		ratios := make([]float64, 0, cfg.Runs)
		errS := make([]float64, 0, cfg.Runs)
		errM := make([]float64, 0, cfg.Runs)
		for _, r := range results {
			ratios = append(ratios, r.SpeedRatio)
			errS = append(errS, r.ErrT0Single)
			errM = append(errM, r.ErrT0Multi)
		}
		res.SpeedRatio = metrics.Mean(ratios)
		res.ErrT0Single = metrics.Mean(errS)
		res.ErrT0Multi = metrics.Mean(errM)
	}
	return res, nil
}

// runPriorityOnce executes one mixed-priority workload in its own cell.
func runPriorityOnce(cl *cell, cfg PriorityConfig) (*PriorityResult, error) {
	const (
		lowPri  = 1
		highPri = 2
	)
	// PerClass low/high pairs at random points of execution, then the probe
	// pair: identical size, no prework, different priority.
	batch, err := cl.zipfBatch(2*cfg.PerClass, cfg.MaxN, 0.8)
	if err != nil {
		return nil, err
	}
	probeN := cfg.MaxN / 2
	batch = append(batch, batchQuery{n: probeN}, batchQuery{n: probeN})
	for i := range batch {
		batch[i].priority = [2]int{lowPri, highPri}[i%2]
	}
	srv := cl.server(sched.Config{Weights: map[int]float64{lowPri: cfg.LowWeight, highPri: cfg.HighWeight}})
	queries, err := cl.submit(srv, batch)
	if err != nil {
		return nil, err
	}
	probeLow, probeHigh := queries[len(queries)-2], queries[len(queries)-1]

	// Time-0 estimates.
	multi := stageEstimates(srv.StateRunning(), cfg.RateC)
	single := singleEstimates(srv, queries)

	// Measure the probes' speeds over an early window, while both classes
	// are saturated; cumulative work over elapsed time avoids the speed
	// tracker's window quantization.
	srv.RunUntil(120 * cfg.Quantum)
	speedLow := probeLow.Runner.WorkDone() / srv.Now()
	speedHigh := probeHigh.Runner.WorkDone() / srv.Now()
	if err := finishAll(srv, queries); err != nil {
		return nil, err
	}

	res := &PriorityResult{
		Fig: metrics.Figure{
			Title:  "Extension: weighted priorities — time-0 estimates vs actual",
			XLabel: "query id",
			YLabel: "remaining time (s)",
		},
	}
	if speedLow > 0 {
		res.SpeedRatio = speedHigh / speedLow
	}
	actualS := res.Fig.AddSeries("actual")
	singleS := res.Fig.AddSeries("single-query estimate")
	multiS := res.Fig.AddSeries("multi-query estimate")
	for _, q := range queries {
		actualS.Add(float64(q.ID), q.FinishTime)
		singleS.Add(float64(q.ID), single[q.ID])
		multiS.Add(float64(q.ID), multi[q.ID])
	}
	res.ErrT0Single = metrics.Mean(time0Errs(queries, single))
	res.ErrT0Multi = metrics.Mean(time0Errs(queries, multi))
	return res, nil
}

func (r *PriorityResult) report() *Report {
	return new(Report).
		text("== Extension: weighted priorities (Assumption 3) ==\n").
		text("measured high/low speed ratio: %.2f (weights predict 3.00)\n", r.SpeedRatio).
		text("mean time-0 relative error: single %.0f%%, multi %.0f%%\n\n", r.ErrT0Single*100, r.ErrT0Multi*100).
		figure("priority", &r.Fig)
}
