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
// query), each driven through a one-shard serving tier running the calibrated
// estimate plane on a manual clock. At a fixed cadence the sweep records
// every live query's reported uncertainty interval [now+eta_low, now+eta_high]
// and, once the workload drains, scores each interval against the query's
// true finish time. Coverage is the fraction of intervals that contained it —
// the number a band is FOR; a well-calibrated default band must keep it high
// without ballooning the interval width.
type CalibrationConfig struct {
	Common // defaults: C = 100, quantum 0.5, a band observation every 5 s
	// Estimator is the estimate plane under test (default calibrated; stage
	// scores the same points with degenerate bands).
	Estimator string
}

func (c CalibrationConfig) withDefaults() CalibrationConfig {
	c.Common = c.Common.withDefaults(Common{RateC: 100, Quantum: 0.5, SampleEvery: 5})
	if c.Estimator == "" {
		c.Estimator = core.EstimatorCalibrated
	}
	return c
}

// CalibrationScenario is one scenario's scorecard: how often the band held
// the true finish, how wide it was, and how far the point was from it.
type CalibrationScenario struct {
	Name     string
	Samples  int     // scored intervals (finite-band observations of finishers)
	Within   int     // intervals that contained the true finish time
	Coverage float64 // Within / Samples
	Width    float64 // mean interval width ÷ (finish − now), the true remaining time
	// PointErr is the mean |now + MultiETA − finish| ÷ (finish − now) over
	// every sampled running or queued view with a finite MultiETA;
	// PointErrTotal the same ÷ (finish − submit), the query's whole time in
	// the system.
	PointErr      float64
	PointErrTotal float64
}

// CalibrationResult aggregates the scorecards across the scenario battery.
type CalibrationResult struct {
	Scenarios []CalibrationScenario
	Samples   int
	Within    int
	Coverage  float64 // pooled over all scenarios
	Width     float64 // pooled over all scenarios' intervals
	// PointErr and PointErrTotal are the scenarios' means, each scenario
	// counting once whatever its number of samples.
	PointErr      float64
	PointErrTotal float64
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
	samples, within, points   int
	width, pointErr, pointTot float64 // sums of the relative widths and point errors
}

// RunCalibration runs the battery and scores its bands and points.
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
			Title:  "Calibrated estimator: uncertainty-band coverage per scenario",
			XLabel: "scenario (battery order: mcq naq scq priority arrivals mpl perturb)",
			YLabel: "fraction of intervals containing the true finish",
		},
	}
	s := res.Fig.AddSeries("band coverage")
	mean := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	for i, cell := range cells {
		sc := CalibrationScenario{
			Name: scenarios[i].name, Samples: cell.samples, Within: cell.within,
			Coverage: mean(float64(cell.within), cell.samples), Width: mean(cell.width, cell.samples),
			PointErr: mean(cell.pointErr, cell.points), PointErrTotal: mean(cell.pointTot, cell.points),
		}
		res.Scenarios = append(res.Scenarios, sc)
		res.Samples += cell.samples
		res.Within += cell.within
		res.Width += cell.width
		res.PointErr += sc.PointErr / float64(len(cells))
		res.PointErrTotal += sc.PointErrTotal / float64(len(cells))
		s.Add(float64(i+1), sc.Coverage)
	}
	if res.Samples == 0 {
		return nil, fmt.Errorf("experiments: calibration scored no intervals; the battery is vacuous")
	}
	res.Coverage = float64(res.Within) / float64(res.Samples)
	res.Width /= float64(res.Samples)
	return res, nil
}

func (r *CalibrationResult) report() *Report {
	rep := new(Report).text("== Calibrated estimator: uncertainty-band calibration ==\n")
	for _, sc := range r.Scenarios {
		rep.text("  %-9s coverage %5.1f%%  (%d/%d intervals)  width %.3f  point error %.3f (%.3f of total)\n",
			sc.Name, sc.Coverage*100, sc.Within, sc.Samples, sc.Width, sc.PointErr, sc.PointErrTotal)
	}
	return rep.
		text("  pooled coverage %.1f%% (%d/%d; acceptance floor 80%%)  width %.3f\n", r.Coverage*100, r.Within, r.Samples, r.Width).
		text("  scenario-mean point error %.3f (%.3f of total); widths and errors are ÷ true remaining time\n\n",
			r.PointErr, r.PointErrTotal).
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

	type sample struct {
		id          int
		now         float64
		eta, lo, hi float64 // MultiETA and its band, relative to now
	}
	var samples []sample
	nextSample := 0.0
	finished, err := t.drain(sc.actions, func(now float64, ov cluster.GlobalOverview) {
		if now+1e-9 < nextSample {
			return
		}
		nextSample = now + cfg.SampleEvery
		for _, v := range append(append([]service.QueryView(nil), ov.Running...), ov.Queued...) {
			samples = append(samples, sample{id: v.ID, now: now,
				eta: float64(v.MultiETA), lo: float64(v.ETALow), hi: float64(v.ETAHigh)})
		}
	})
	if err != nil {
		return calCell{}, err
	}
	finish := make(map[int]float64, len(finished))
	submit := make(map[int]float64, len(finished))
	for _, v := range finished {
		finish[v.ID] = v.FinishTime
		submit[v.ID] = v.SubmitTime
	}

	// Score every recorded interval against the true finish, with one tick of
	// quantization slack: finishes are stamped at segment ends, so no band
	// read a tick earlier can resolve finer than the quantum.
	cell := calCell{}
	eps := cfg.Quantum
	for _, p := range samples {
		at := finish[p.id]
		remaining := at - p.now
		if remaining <= 0 {
			continue
		}
		if !math.IsNaN(p.eta) && !math.IsInf(p.eta, 0) {
			miss := math.Abs(p.now + p.eta - at)
			cell.points++
			cell.pointErr += miss / remaining
			cell.pointTot += miss / (at - submit[p.id])
		}
		// Infinite bands (blocked queries) contain every finish
		// trivially; scoring them would inflate coverage.
		if math.IsNaN(p.lo) || math.IsInf(p.hi, 0) {
			continue
		}
		cell.samples++
		cell.width += (p.hi - p.lo) / remaining
		if p.now+p.lo-eps <= at && at <= p.now+p.hi+eps {
			cell.within++
		}
	}
	return cell, nil
}
