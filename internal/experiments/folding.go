package experiments

import (
	"fmt"

	"mqpi/internal/cluster"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/workload"
)

// FoldingConfig configures the shared-scan folding experiment: a Zipf-skewed
// scan workload (hotter skew ⇒ more same-table collisions ⇒ more foldable
// work) replayed twice per cell, folding on and folding off. The design
// claim under test is that folding moves ONLY the engine-cost plane: the
// throughput and ETA series must coincide exactly between the two modes,
// while the saved-pages series separates them.
type FoldingConfig struct {
	Common           // defaults: 3 runs of 24 queries per cell, C = 10, quantum 0.5
	ZipfAs []float64 // table-size/popularity skew; default 1.05, 1.3, 1.6, 2.0
	MPL    int       // admission limit; default 4 (folding needs co-residents)
}

func (c FoldingConfig) withDefaults() FoldingConfig {
	c.Common = c.Common.withDefaults(Common{Runs: 3, NumQueries: 24, RateC: 10, Quantum: 0.5})
	if len(c.ZipfAs) == 0 {
		c.ZipfAs = []float64{1.05, 1.3, 1.6, 2.0}
	}
	c.MPL = orDefault(c.MPL, 4)
	return c
}

// FoldingResult carries three series pairs (fold-on vs fold-off): throughput
// and ETA error (time-0 and mid-flight samples), which must be identical
// between the modes, and the fraction of engine work the shared cursors
// deduplicated, which is where folding is allowed to show.
type FoldingResult struct {
	FigThroughput metrics.Figure
	FigETA        metrics.Figure
	FigSaved      metrics.Figure
}

// RunFoldingSweep replays the workload for every (zipf-a, fold, run) cell.
// Each cell submits NumQueries staggered SUM scans over the z-ladder tables
// (the table index drawn from the cell's Zipf), drains to quiescence, and
// reports throughput (queries per virtual second of makespan), mean relative
// error of the multi-query ETA (sampled at submission and once per drain tick
// mid-flight), and the saved fraction Σ(done−cost)/Σdone.
func RunFoldingSweep(cfg FoldingConfig) (*FoldingResult, error) {
	cfg = cfg.withDefaults()
	res := &FoldingResult{
		FigThroughput: metrics.Figure{
			Title:  "Shared-scan folding: throughput vs workload skew (must coincide)",
			XLabel: "zipf a",
			YLabel: "queries per virtual second",
		},
		FigETA: metrics.Figure{
			Title:  "Shared-scan folding: mean multi-query ETA error (time-0 + mid-flight) vs skew (must coincide)",
			XLabel: "zipf a",
			YLabel: "relative error (fraction)",
		},
		FigSaved: metrics.Figure{
			Title:  "Shared-scan folding: engine work deduplicated vs workload skew",
			XLabel: "zipf a",
			YLabel: "saved fraction of charged work",
		},
	}

	type foldCell struct {
		throughput float64
		errs       []float64
		done, cost float64
	}
	modes := []bool{false, true}
	nCells := len(cfg.ZipfAs) * len(modes) * cfg.Runs
	cells, err := runIndexed(cfg.Parallel, nCells, func(j int) (foldCell, error) {
		ai := j / (len(modes) * cfg.Runs)
		fold := modes[(j/cfg.Runs)%len(modes)]
		r := j % cfg.Runs
		zipf, err := workload.NewZipf(cfg.ZipfAs[ai], clusterTables)
		if err != nil {
			return foldCell{}, err
		}
		// The seed offset deliberately ignores the fold mode: both modes of a
		// (zipf-a, run) pair replay the identical dataset and arrival stream,
		// so any charged-plane divergence is a bug, not noise.
		t, rng, err := ladderTier(cfg.Common, int64(ai)*104729+int64(r)*7919,
			fmt.Sprintf("folding cell a=%g fold=%v", cfg.ZipfAs[ai], fold),
			cluster.Config{Service: service.Config{Sched: sched.Config{
				RateC: cfg.RateC, MPL: cfg.MPL, Quantum: cfg.Quantum,
				Workers: cfg.Workers, Fold: fold,
			}}})
		if err != nil {
			return foldCell{}, err
		}
		defer t.close()

		// Every multi-query ETA the service publishes is scored against the
		// realized remaining time: one sample at submission (time 0) and one
		// per drain tick while the query runs (mid-flight).
		type pred struct {
			id  int
			at  float64
			eta float64
		}
		var preds []pred
		sample := func(v service.QueryView) {
			if eta, ok := finiteETA(v.MultiETA); ok {
				preds = append(preds, pred{id: v.ID, at: t.clock, eta: eta})
			}
		}
		for i := 0; i < cfg.NumQueries; i++ {
			gap := cfg.Quantum * float64(rng.Intn(3))
			// Hottest Zipf rank ⇒ largest ladder table: fold opportunities
			// concentrate on scans long enough to overlap (z0 is a single page,
			// below the registry's 2-page sharing floor).
			table := clusterTables - zipf.Sample(rng)
			view, err := t.submit(gap, ladderScan(i, table, rng.Intn(3)), "")
			if err != nil {
				return foldCell{}, err
			}
			sample(view)
		}
		finished, err := t.drain(nil, func(_ float64, ov cluster.GlobalOverview) {
			for _, v := range ov.Running {
				sample(v)
			}
		})
		if err != nil {
			return foldCell{}, err
		}

		out := foldCell{throughput: float64(cfg.NumQueries) / t.clock}
		finish := make(map[int]float64, len(finished))
		for _, v := range finished {
			out.done += v.Done
			out.cost += v.Cost
			finish[v.ID] = v.FinishTime
		}
		for _, p := range preds {
			if actual := finish[p.id] - p.at; actual > 0 {
				out.errs = append(out.errs, metrics.RelErr(p.eta, actual))
			}
		}
		if !fold && out.cost != out.done {
			return foldCell{}, fmt.Errorf("experiments: fold-off cell a=%g cost %g != done %g",
				cfg.ZipfAs[ai], out.cost, out.done)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	for mi, fold := range modes {
		name := "fold-off"
		if fold {
			name = "fold-on"
		}
		sT := res.FigThroughput.AddSeries(name)
		sE := res.FigETA.AddSeries(name)
		sS := res.FigSaved.AddSeries(name)
		for ai, a := range cfg.ZipfAs {
			var tps, errs []float64
			done, cost := 0.0, 0.0
			for r := 0; r < cfg.Runs; r++ {
				c := cells[ai*len(modes)*cfg.Runs+mi*cfg.Runs+r]
				tps = append(tps, c.throughput)
				errs = append(errs, c.errs...)
				done += c.done
				cost += c.cost
			}
			sT.Add(a, metrics.Mean(tps))
			sE.Add(a, metrics.Mean(errs))
			saved := 0.0
			if done > 0 {
				saved = (done - cost) / done
			}
			sS.Add(a, saved)
		}
	}
	return res, nil
}

func (r *FoldingResult) report() *Report {
	return new(Report).
		text("== Extension: shared-scan folding on a Zipf-skewed scan workload ==\n").
		text("(throughput and ETA series must coincide: folding only moves engine cost)\n").
		figure("folding-throughput", &r.FigThroughput).text("\n").
		figure("folding-eta", &r.FigETA).text("\n").
		figure("folding-saved", &r.FigSaved)
}
