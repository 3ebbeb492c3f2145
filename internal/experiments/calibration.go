package experiments

import (
	"fmt"
	"math"

	"mqpi/internal/cluster"
	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/metrics"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/workload"
)

// CalibrationConfig configures the estimator-band calibration sweep: seven
// scenarios shaped like the paper's evaluation settings (concurrent batch,
// queued admission, staggered arrivals, weighted priorities, a blocked
// query), each driven through a one-shard serving tier running the ensemble
// estimate plane on a manual clock. At a fixed cadence the sweep records
// every live query's reported uncertainty interval [now+eta_low, now+eta_high]
// and, once the workload drains, scores each interval against the query's
// true finish time. Coverage is the fraction of intervals that contained it —
// the number a band is FOR; a well-calibrated default band must keep it high
// without ballooning the interval width.
type CalibrationConfig struct {
	Common // defaults: C = 100, quantum 0.5, a band observation every 5 s
	// Estimator is the estimate plane under test (default ensemble; stage
	// would trivially score its degenerate bands).
	Estimator string
}

func (c CalibrationConfig) withDefaults() CalibrationConfig {
	c.Common = c.Common.withDefaults(Common{RateC: 100, Quantum: 0.5, SampleEvery: 5})
	if c.Estimator == "" {
		c.Estimator = core.EstimatorEnsemble
	}
	return c
}

// CalibrationScenario is one scenario's coverage scorecard.
type CalibrationScenario struct {
	Name     string
	Samples  int     // scored intervals (finite-band observations of finishers)
	Within   int     // intervals that contained the true finish time
	Coverage float64 // Within / Samples
}

// CalibrationResult aggregates band coverage across the scenario battery.
type CalibrationResult struct {
	Scenarios []CalibrationScenario
	Samples   int
	Within    int
	Coverage  float64 // pooled over all scenarios
	// Fig plots per-scenario coverage (x = scenario index, in battery order).
	Fig metrics.Figure
}

type calSubmit struct {
	n        int     // part-table size parameter N of the paper query
	priority int     // 0 low / 1 medium / 2 high (weights 1/2/4)
	delay    float64 // virtual seconds before the query enters the system
}

type calScenario struct {
	name    string
	mpl     int
	submits []calSubmit
	actions []tierAction
}

// calScenarios is the battery: one scenario per evaluation regime the paper
// sweeps, at sizes small enough that the whole battery stays a smoke-testable
// few virtual minutes.
func calScenarios() []calScenario {
	return []calScenario{
		// MCQ: a concurrent batch of unequal queries, no queue.
		{name: "mcq", submits: []calSubmit{{n: 8}, {n: 16}, {n: 24}}},
		// NAQ: MPL 2 with a third query waiting in the admission queue.
		{name: "naq", mpl: 2, submits: []calSubmit{{n: 24}, {n: 6}, {n: 10}}},
		// SCQ: a deep FIFO backlog draining through two slots.
		{name: "scq", mpl: 2, submits: []calSubmit{{n: 10}, {n: 8}, {n: 12}, {n: 6}, {n: 9}, {n: 7}}},
		// Weighted priorities (Assumption 3): same sizes, different shares.
		{name: "priority", submits: []calSubmit{{n: 10, priority: 2}, {n: 10, priority: 1}, {n: 10}, {n: 12, priority: 1}}},
		// Staggered arrivals: later queries dilute the shares of earlier ones.
		{name: "arrivals", submits: []calSubmit{{n: 12}, {n: 10, delay: 15}, {n: 8, delay: 30}}},
		// MPL sweep regime: a wider batch over three slots.
		{name: "mpl", mpl: 3, submits: []calSubmit{{n: 6}, {n: 8}, {n: 10}, {n: 5}, {n: 7}, {n: 9}, {n: 6}, {n: 8}}},
		// Perturbation: a mid-run block/unblock invalidates earlier bands for
		// the victim and shifts everyone else's shares.
		{name: "perturb", submits: []calSubmit{{n: 10}, {n: 12}, {n: 8}},
			actions: []tierAction{{at: 10, target: 1}, {at: 40, unblock: true, target: 1}}},
	}
}

type calCell struct {
	samples, within int
}

// RunCalibration runs the battery and scores band coverage.
func RunCalibration(cfg CalibrationConfig) (*CalibrationResult, error) {
	cfg = cfg.withDefaults()
	if err := core.ValidEstimator(cfg.Estimator); err != nil {
		return nil, err
	}
	scenarios := calScenarios()
	seed := func(i int) cellSeed { return cellSeed{off: int64(i) * 7919} }
	cells, err := runCells(cfg.Common, len(scenarios), seed, func(i int, cl *cell) (calCell, error) {
		return runCalScenario(cfg, cl.ds, scenarios[i])
	})
	if err != nil {
		return nil, err
	}
	res := &CalibrationResult{
		Fig: metrics.Figure{
			Title:  "Estimator ensemble: uncertainty-band coverage per scenario",
			XLabel: "scenario (battery order: mcq naq scq priority arrivals mpl perturb)",
			YLabel: "fraction of intervals containing the true finish",
		},
	}
	s := res.Fig.AddSeries("band coverage")
	for i, cell := range cells {
		cov := 0.0
		if cell.samples > 0 {
			cov = float64(cell.within) / float64(cell.samples)
		}
		res.Scenarios = append(res.Scenarios, CalibrationScenario{
			Name: scenarios[i].name, Samples: cell.samples, Within: cell.within, Coverage: cov,
		})
		res.Samples += cell.samples
		res.Within += cell.within
		s.Add(float64(i+1), cov)
	}
	if res.Samples == 0 {
		return nil, fmt.Errorf("experiments: calibration scored no intervals; the battery is vacuous")
	}
	res.Coverage = float64(res.Within) / float64(res.Samples)
	return res, nil
}

func (r *CalibrationResult) report() *Report {
	rep := new(Report).text("== Estimator ensemble: uncertainty-band calibration ==\n")
	for _, sc := range r.Scenarios {
		rep.text("  %-9s coverage %5.1f%%  (%d/%d intervals)\n", sc.Name, sc.Coverage*100, sc.Within, sc.Samples)
	}
	return rep.
		text("  pooled coverage %.1f%% (%d/%d; acceptance floor 80%%)\n\n", r.Coverage*100, r.Within, r.Samples).
		figure("calibration", &r.Fig)
}

// runCalScenario drives one scenario through a one-shard manual-clock tier
// over the cell's dataset and returns its interval scorecard.
func runCalScenario(cfg CalibrationConfig, ds *workload.Dataset, sc calScenario) (calCell, error) {
	for i, sub := range sc.submits {
		if err := ds.CreatePartTable(i+1, sub.n); err != nil {
			return calCell{}, err
		}
	}
	t, err := startTier("calibration scenario "+sc.name, cluster.Config{Service: service.Config{
		Sched: sched.Config{
			RateC: cfg.RateC, MPL: sc.mpl, Quantum: cfg.Quantum, Workers: cfg.Workers,
			Weights: map[int]float64{0: 1, 1: 2, 2: 4},
		},
		Estimator: cfg.Estimator,
	}}, func() (*engine.DB, error) { return ds.DB, nil })
	if err != nil {
		return calCell{}, err
	}
	defer t.close()

	for i, sub := range sc.submits {
		_, err := t.submit(0, service.SubmitRequest{
			Label:    fmt.Sprintf("%s-q%d", sc.name, i+1),
			SQL:      workload.QuerySQL(i + 1),
			Priority: sub.priority,
			Delay:    sub.delay,
		}, "")
		if err != nil {
			return calCell{}, err
		}
	}

	type interval struct {
		id     int
		lo, hi float64 // absolute virtual-time bounds on the finish
	}
	var preds []interval
	nextSample := 0.0
	finished, err := t.drain(sc.actions, func(now float64, ov cluster.GlobalOverview) {
		if now+1e-9 < nextSample {
			return
		}
		nextSample = now + cfg.SampleEvery
		for _, v := range append(append([]service.QueryView(nil), ov.Running...), ov.Queued...) {
			lo, hi := float64(v.ETALow), float64(v.ETAHigh)
			// Infinite bands (blocked queries) contain every finish
			// trivially; scoring them would inflate coverage.
			if math.IsNaN(lo) || math.IsInf(hi, 0) {
				continue
			}
			preds = append(preds, interval{id: v.ID, lo: now + lo, hi: now + hi})
		}
	})
	if err != nil {
		return calCell{}, err
	}
	finish := make(map[int]float64, len(finished))
	for _, v := range finished {
		finish[v.ID] = v.FinishTime
	}

	// Score every recorded interval against the true finish, with one tick of
	// quantization slack: finishes are stamped at segment ends, so no band
	// read a tick earlier can resolve finer than the quantum.
	cell := calCell{}
	eps := cfg.Quantum
	for _, p := range preds {
		at := finish[p.id]
		cell.samples++
		if p.lo-eps <= at && at <= p.hi+eps {
			cell.within++
		}
	}
	return cell, nil
}
